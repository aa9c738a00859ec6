package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"github.com/movr-sim/movr"
	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/stats"
	"github.com/movr-sim/movr/internal/venue"
)

// The offline jobs: 2 s sessions at the 50 ms tracking cadence on two
// workers, closed loop — job k+1 starts when job k returns.
const (
	offlineDuration = 2 * time.Second
	offlineCadence  = 50 * time.Millisecond
	offlineWorkers  = 2

	// venueBays × venuePlayers is the venue-offline job: 64 sessions in
	// 16 bays, so every job exercises bay lockstep, cross-bay
	// interference and the stream collector.
	venueBays    = 16
	venuePlayers = 4

	// soloSessions is the solo-offline job: a mixed fleet of per-session
	// runs (arcade, homes, dense blockers) with no bays and no coex.
	soloSessions = 24

	// venueBayW and venueBayD are the fleet venue generator's bay
	// footprint; the traced run rebuilds the venue layout from them.
	venueBayW, venueBayD = 8, 8

	// obsCapacity bounds each session's event ring in the count pass; a
	// 2 s session emits far fewer events.
	obsCapacity = 8192
)

// offlineJob generates job k's spec set and a fresh collector for it.
func offlineJob(w string, seed int64, k int) ([]movr.FleetSpec, movr.FleetCollector, error) {
	cfg := movr.FleetScenarioConfig{Duration: offlineDuration, ReEvalPeriod: offlineCadence, Seed: jobSeed(seed, k)}
	if w == "venue-offline" {
		specs, err := movr.VenueFleet(venueBays, venuePlayers, cfg)
		if err != nil {
			return nil, nil, err
		}
		return specs, movr.NewFleetStreamCollector(specs), nil
	}
	specs := movr.MixedFleet(soloSessions, cfg)
	return specs, fleet.NewExactCollector(len(specs)), nil
}

// simSeconds is the simulated session time a spec set covers.
func simSeconds(specs []movr.FleetSpec) float64 {
	var s float64
	for _, sp := range specs {
		s += sp.Session.Duration.Seconds()
	}
	return s
}

// jobRecord is one finished offline job.
type jobRecord struct {
	k        int
	specgen  time.Duration
	wall     time.Duration
	cpu      time.Duration // process CPU while the job ran
	simS     float64
	result   movr.FleetResult
	sessions int
}

// offlineRun carries one offline child's state: the checks it applies to
// every result and the digests it has seen, by job.
type offlineRun struct {
	o       options
	w       workload
	res     *runResult
	golden  []string
	digests map[int]string
}

// finish digests and checks job j's result; it returns the digest and
// whether the result was correct.
func (r *offlineRun) finish(j *jobRecord) (string, bool) {
	d, err := fleetDigest(j.result)
	if err == nil {
		err = checkFleet(j.result, j.sessions)
	}
	if err != nil {
		r.res.problem("job %d: %v", j.k, err)
		return "", false
	}
	if want, ok := r.digests[j.k]; ok && want != d {
		r.res.problem("job %d: digest %s differs from the untraced run's %s", j.k, d, want)
		return d, false
	}
	r.digests[j.k] = d
	if j.k < len(r.golden) && r.golden[j.k] != d {
		r.res.problem("job %d: digest %s, golden %s", j.k, d, r.golden[j.k])
		return d, false
	}
	return d, true
}

// runPlain runs job k through the public fleet API, as a user would.
// Jobs run one at a time, so the process CPU spent meanwhile is the job's.
func (r *offlineRun) runPlain(k int) (*jobRecord, error) {
	t0, c0 := time.Now(), processCPU()
	specs, col, err := offlineJob(r.w.name, r.o.seed, k)
	if err != nil {
		return nil, err
	}
	j := &jobRecord{k: k, specgen: time.Since(t0), simS: simSeconds(specs), sessions: len(specs)}
	j.result, err = movr.RunFleetCollect(context.Background(), specs, movr.FleetConfig{Workers: offlineWorkers}, col)
	j.wall, j.cpu = time.Since(t0), processCPU()-c0
	return j, err
}

// runOffline is an offline workload child: the first job (whose digest
// the parent times as set-up), the warm-up, the measured window, and for
// a traced run a second, traced window plus the per-layer passes.
func runOffline(o options, w workload, enc *json.Encoder) (runResult, error) {
	res := newRunResult(o, w)
	r := &offlineRun{o: o, w: w, res: &res, golden: goldenFor(w.name, o.seed), digests: map[int]string{}}

	j, err := r.runPlain(0)
	if err != nil {
		return res, err
	}
	first, _ := r.finish(j)
	if first == "" {
		first = "invalid"
	}
	if err := enc.Encode(childLine{First: first}); err != nil {
		return res, err
	}
	if o.setupOnly {
		return res, nil
	}

	k := 1
	for start := time.Now(); time.Since(start) < o.warmup; k++ {
		j, err := r.runPlain(k)
		if err != nil {
			return res, err
		}
		r.finish(j)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var jobs []*jobRecord
	for time.Since(t0) < time.Duration(o.seconds)*time.Second {
		j, err := r.runPlain(k)
		k++
		if err != nil {
			return res, err
		}
		res.Attempted++
		if _, ok := r.finish(j); !ok {
			res.Failed++
		}
		jobs = append(jobs, j)
	}
	runtime.ReadMemStats(&ms1)

	// Each metric is the median over the window's jobs, so a stall of the
	// machine during one job does not move it.
	var simS float64
	var busy time.Duration
	n := len(jobs)
	rate, cpuRate, cpu := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, j := range jobs {
		simS += j.simS
		busy += j.wall
		rate[i], cpuRate[i], cpu[i] = j.simS/j.wall.Seconds(), j.simS/j.cpu.Seconds(), ms(j.cpu)
	}
	if !o.traced() {
		res.set("sim_s_per_s", stats.Median(rate), "s/s", n)
		res.set("sim_s_per_cpu_s", stats.Median(cpuRate), "s/s", n)
		res.set("cpu_ms_per_job", stats.Median(cpu), "ms", n)
		res.set("peak_rss_mb", peakRSSMB("self"), "MB", 1)
		return res, nil
	}

	res.set("runtime.alloc_mb_per_sim_s", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/simS, "MB/sim_s", n)
	res.set("runtime.gc_per_job", float64(ms1.NumGC-ms0.NumGC)/float64(n), "count", n)
	if err := r.tracedWindow(simS / busy.Seconds()); err != nil {
		return res, err
	}
	setZeros(&res, daemonOnly)
	return res, nil
}

// tracedWindow repeats the workload from job 0 through the public calls
// RunFleetCollect is made of, timing each layer call, under the CPU
// profiler; then it runs the per-layer passes and writes the artifacts.
// untraced is the untraced window's throughput over job time, the base of
// the tracing overhead.
func (r *offlineRun) tracedWindow(untraced float64) error {
	dir := r.o.traceDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr := newTracer()
	st := &replicaStats{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var jobs []*jobRecord
	for t0, k := time.Now(), 0; time.Since(t0) < time.Duration(r.o.seconds)*time.Second; k++ {
		j, err := r.runTraced(k, tr, st)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		jobs = append(jobs, j)
	}
	pprof.StopCPUProfile()

	// Digests are taken after the profile stops, so result encoding does
	// not show up as wire CPU.
	var simS float64
	var busy time.Duration
	var specgen []float64
	frames := 0
	for _, j := range jobs {
		r.finish(j)
		simS += j.simS
		busy += j.wall
		frames += j.result.Agg.Frames
		specgen = append(specgen, ms(j.specgen))
	}
	n := len(jobs)
	res := r.res
	res.set("trace.overhead_frac", untraced/(simS/busy.Seconds())-1, "frac", n)
	res.set("fleet.specgen_ms", stats.Mean(specgen), "ms", n)
	res.set("stream.frames_per_job", float64(frames)/float64(n), "count", n)
	setTail(res, "experiments.bay", st.bays)
	setTail(res, "experiments.session", st.sessions)
	res.set("fleet.pool_idle_frac", 1-st.busy.Seconds()/(offlineWorkers*st.poolWall.Seconds()), "frac", n)
	res.set("fleet.collect_us", float64(st.collect.Microseconds())/float64(n), "us", n)

	shares, err := setCPUShares(res, prof.Bytes())
	if err != nil {
		return err
	}
	if err := r.layerPasses(jobs); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, r.w.name+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}
	if err := writeLayers(filepath.Join(dir, r.w.name+".layers.json"), r.w.name, shares); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, r.w.name+".trace.json"))
}

// replicaStats accumulates the layer timings of the traced replica.
type replicaStats struct {
	mu       sync.Mutex
	bays     []float64 // RunBayLockstep calls, ms
	sessions []float64 // RunSessionVariant calls, ms
	busy     time.Duration
	poolWall time.Duration
	collect  time.Duration
}

// runTraced runs job k the way fleet.RunCollect does — bays found with
// fleet.BayLen, each run by RunBayLockstep or RunSessionVariant on
// pool.ForEach with two workers, outcomes folded into the same collector
// — with a span around every call.
func (r *offlineRun) runTraced(k int, tr *tracer, st *replicaStats) (*jobRecord, error) {
	t0 := time.Now()
	specs, col, err := offlineJob(r.w.name, r.o.seed, k)
	if err != nil {
		return nil, err
	}
	j := &jobRecord{k: k, specgen: time.Since(t0), simS: simSeconds(specs), sessions: len(specs)}
	tr.span("specgen", k, 0, t0, time.Now())

	var groups [][2]int
	for i := 0; i < len(specs); {
		n := fleet.BayLen(specs[i:])
		groups = append(groups, [2]int{i, i + n})
		i += n
	}
	lanes := make(chan int, offlineWorkers)
	for l := 1; l <= offlineWorkers; l++ {
		lanes <- l
	}
	emit := func(i int, out experiments.VariantOutcome) {
		sp := specs[i]
		o := fleet.SessionOutcome{
			ID:       sp.ID,
			Seed:     sp.Session.Seed,
			Variant:  specVariant(sp),
			Report:   out.Report,
			Handoffs: out.Handoffs,
		}
		if out.Report.Frames > 0 {
			o.DeliveredFrac = float64(out.Report.Delivered) / float64(out.Report.Frames)
		}
		c0 := time.Now()
		col.Add(i, o)
		d := time.Since(c0)
		st.mu.Lock()
		st.collect += d
		st.mu.Unlock()
	}
	p0 := time.Now()
	err = pool.ForEach(context.Background(), len(groups), offlineWorkers, func(_ context.Context, gi int) error {
		lane := <-lanes
		defer func() { lanes <- lane }()
		lo, hi := groups[gi][0], groups[gi][1]
		b0 := time.Now()
		var outs []experiments.VariantOutcome
		name := "bay"
		if hi-lo == 1 {
			name = "session"
			out, err := experiments.RunSessionVariant(specs[lo].Session, specVariant(specs[lo]))
			if err != nil {
				return fmt.Errorf("session %q: %w", specs[lo].ID, err)
			}
			outs = append(outs, out)
		} else {
			players := make([]experiments.BayPlayer, 0, hi-lo)
			for i := lo; i < hi; i++ {
				players = append(players, experiments.BayPlayer{Cfg: specs[i].Session, Variant: specVariant(specs[i])})
			}
			outs, err = experiments.RunBayLockstep(players)
			if err != nil {
				return err
			}
		}
		b1 := time.Now()
		tr.span(name, k, lane, b0, b1)
		for i, out := range outs {
			emit(lo+i, out)
		}
		st.mu.Lock()
		if name == "bay" {
			st.bays = append(st.bays, ms(b1.Sub(b0)))
		} else {
			st.sessions = append(st.sessions, ms(b1.Sub(b0)))
		}
		st.busy += time.Since(b0)
		st.mu.Unlock()
		return nil
	})
	p1 := time.Now()
	tr.span("pool", k, 0, p0, p1)
	if err != nil {
		return nil, err
	}
	j.result = col.Result()
	c1 := time.Now()
	tr.span("collect", k, 0, p1, c1)
	tr.span("job", k, 0, t0, c1)
	st.mu.Lock()
	st.poolWall += p1.Sub(p0)
	st.collect += c1.Sub(p1)
	st.mu.Unlock()
	j.wall = c1.Sub(t0)
	return j, nil
}

// specVariant resolves a spec's variant the way the fleet engine does:
// empty means the pose-tracking proposal.
func specVariant(sp movr.FleetSpec) experiments.SessionVariant {
	if sp.Variant == "" {
		return experiments.VariantMoVRTracking
	}
	return sp.Variant
}

// layerPasses measures what the timed windows leave out: spec-time
// geometry snapshots and interference tables re-invoked on the first
// jobs' bays (and checked equal to the generated ones), the coex
// window count, and the link manager's reassessments counted from an
// event-recorded re-run of job 0, whose result must not change.
func (r *offlineRun) layerPasses(jobs []*jobRecord) error {
	var geoT, intT time.Duration
	var windows int64
	n := min(len(jobs), 8)
	for k := 0; k < n; k++ {
		specs, _, err := offlineJob(r.w.name, r.o.seed, k)
		if err != nil {
			return err
		}
		g, i, w, err := rebuildVenue(specs)
		if err != nil {
			r.res.problem("job %d: %v", k, err)
		}
		geoT, intT, windows = geoT+g, intT+i, windows+w
	}
	r.res.set("coex.geometry_ms", ms(geoT)/float64(n), "ms", n)
	r.res.set("venue.interference_ms", ms(intT)/float64(n), "ms", n)
	r.res.set("coex.windows_per_job", float64(windows)/float64(n), "count", n)

	specs, col, err := offlineJob(r.w.name, r.o.seed, 0)
	if err != nil {
		return err
	}
	recs := fleet.AttachTraceRecorders(specs, obsCapacity)
	res, err := movr.RunFleetCollect(context.Background(), specs, movr.FleetConfig{Workers: offlineWorkers}, col)
	if err != nil {
		return err
	}
	r.finish(&jobRecord{k: 0, result: res, sessions: len(specs)})
	reassess := 0
	for _, rec := range recs {
		if rec.Dropped() > 0 {
			r.res.problem("count pass dropped %d events", rec.Dropped())
		}
		for _, ev := range rec.Events() {
			if ev.Kind == obs.KindReassess {
				reassess++
			}
		}
	}
	r.res.set("linkmgr.reassess_per_job", float64(reassess), "count", 1)
	return nil
}

// rebuildVenue re-invokes the spec-time builders of a venue job — every
// bay's coex geometry snapshot and cross-bay interference table — timing
// each, and checks they equal what the generator put in the specs. It
// returns zeros for spec sets without shared-medium bays.
func rebuildVenue(specs []movr.FleetSpec) (geoT, intT time.Duration, windows int64, err error) {
	var rooms []*coex.Room
	var geos []*coex.Geometry
	for i := 0; i < len(specs); i += fleet.BayLen(specs[i:]) {
		rm := specs[i].Session.Coex
		if rm == nil || rm.Geometry == nil {
			continue
		}
		t := time.Now()
		g, err := experiments.BuildCoexGeometry(coex.Room{
			Players:    rm.Players,
			Period:     rm.Period,
			Policy:     rm.Policy,
			Weights:    rm.Weights,
			UplinkSlot: rm.UplinkSlot,
		}, specs[i].Session.Duration)
		geoT += time.Since(t)
		if err != nil {
			return geoT, intT, windows, err
		}
		if !reflect.DeepEqual(g, rm.Geometry) {
			return geoT, intT, windows, fmt.Errorf("bay %d: rebuilt geometry differs from the spec's", len(rooms))
		}
		windows += g.Windows()
		rooms = append(rooms, rm)
		geos = append(geos, g)
	}
	if len(rooms) == 0 {
		return 0, 0, 0, nil
	}
	layout, err := venue.Grid(len(rooms), venueBayW, venueBayD, room.Drywall)
	if err != nil {
		return geoT, intT, windows, err
	}
	chans, err := venue.AssignChannels(layout, 0, "")
	if err != nil {
		return geoT, intT, windows, err
	}
	params := venue.DefaultParams(experiments.APPos)
	for b, rm := range rooms {
		t := time.Now()
		var pen []float64
		if layout.CoChannelNeighbors(chans, b) > 0 {
			pen = venue.InterferenceTable(layout, chans, b, geos, params)
		}
		intT += time.Since(t)
		if !reflect.DeepEqual(pen, rm.ExtSINRPenaltyDB) {
			return geoT, intT, windows, fmt.Errorf("bay %d: rebuilt interference table differs from the spec's", b)
		}
	}
	return geoT, intT, windows, nil
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
