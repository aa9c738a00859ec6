package fleet

import (
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/obs"
)

// AttachTraceRecorders equips every spec with a fresh per-session event
// recorder (capacity events each; <= 0 means obs.DefaultCapacity) and
// returns the recorders in spec order. Each session owns its recorder
// exclusively — the fleet engine runs sessions on separate goroutines,
// and a recorder is single-writer by design — so tracing composes with
// any worker count. Collect the result after Run with CollectTrace.
func AttachTraceRecorders(specs []Spec, capacity int) []*obs.Recorder {
	if capacity <= 0 {
		capacity = obs.DefaultCapacity
	}
	recs := make([]*obs.Recorder, len(specs))
	for i := range specs {
		rec := obs.NewRecorder(capacity)
		recs[i] = rec
		specs[i].Session.ObsFor = func(experiments.SessionVariant) *obs.Recorder { return rec }
	}
	return recs
}

// CollectTrace snapshots the recorders into a Trace, sessions in spec
// order under their spec IDs — the same order Run reports outcomes in,
// so a trace is byte-identical for any worker count.
func CollectTrace(specs []Spec, recs []*obs.Recorder) obs.Trace {
	tr := obs.Trace{Sessions: make([]obs.SessionTrace, 0, len(recs))}
	for i, rec := range recs {
		id := ""
		if i < len(specs) {
			id = specs[i].ID
		}
		tr.Sessions = append(tr.Sessions, obs.Collect(id, rec))
	}
	return tr
}
