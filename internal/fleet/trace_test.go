package fleet

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/obs"
)

// traceScenario builds a small shared-room fleet that exercises every
// event source: the coex scheduler (slot grants, blockage reclaims,
// airtime), the link controller (handoffs, reassessments) and the
// stream (frame delivery).
func traceScenario(t *testing.T) []Spec {
	t.Helper()
	specs, err := Kind("coex").Specs(4, ScenarioConfig{
		Duration: 2 * time.Second,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func runTraced(t *testing.T, workers int) (Result, obs.Trace) {
	t.Helper()
	specs := traceScenario(t)
	recs := AttachTraceRecorders(specs, 0)
	res, err := Run(context.Background(), specs, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res, CollectTrace(specs, recs)
}

// TestTraceDeterministic is the acceptance gate: the same seeded fleet
// must produce a byte-identical event file across runs and across
// worker counts.
func TestTraceDeterministic(t *testing.T) {
	_, tr1 := runTraced(t, 1)
	_, tr4 := runTraced(t, 4)

	if !reflect.DeepEqual(tr1, tr4) {
		t.Fatal("trace differs across worker counts")
	}

	var c1, c4 bytes.Buffer
	if err := tr1.WriteChrome(&c1); err != nil {
		t.Fatal(err)
	}
	if err := tr4.WriteChrome(&c4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c4.Bytes()) {
		t.Fatal("Chrome trace bytes differ across runs")
	}
	// The trace must actually contain the stack's event vocabulary.
	kinds := map[obs.Kind]int{}
	for _, s := range tr1.Sessions {
		if s.ID == "" {
			t.Fatal("session trace without spec ID")
		}
		for _, ev := range s.Events {
			kinds[ev.Kind]++
		}
	}
	for _, k := range []obs.Kind{
		obs.KindSessionStart, obs.KindSessionEnd, obs.KindReassess,
		obs.KindSlotGrant, obs.KindAirtime, obs.KindFrameOK,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in a coex fleet trace", k)
		}
	}
}

// TestTracingDoesNotChangeResults pins the observation-only contract:
// a traced run and an untraced run of the same specs produce identical
// stream reports.
func TestTracingDoesNotChangeResults(t *testing.T) {
	plain := traceScenario(t)
	resPlain, err := Run(context.Background(), plain, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resTraced, _ := runTraced(t, 2)

	if len(resPlain.Sessions) != len(resTraced.Sessions) {
		t.Fatalf("session counts differ: %d vs %d", len(resPlain.Sessions), len(resTraced.Sessions))
	}
	for i := range resPlain.Sessions {
		if !reflect.DeepEqual(resPlain.Sessions[i], resTraced.Sessions[i]) {
			t.Errorf("session %d differs with tracing on:\n off %+v\n  on %+v",
				i, resPlain.Sessions[i], resTraced.Sessions[i])
		}
	}
}
