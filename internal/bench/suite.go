package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/gainctl"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/linkmgr"
	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/server"
	"github.com/movr-sim/movr/internal/stream"
	"github.com/movr-sim/movr/internal/vr"
)

// suiteWorkers pins the worker-pool width every parallel benchmark uses,
// so reports from machines with different core counts stay comparable.
const suiteWorkers = 2

// Suite returns the named benchmark suite in report order. Benchmark
// workloads are fixed — Options.Fast trims only repetition counts — so
// any two reports compare per-op like for like. The per-scenario fleet
// entries cover every generator kind, the coex airtime-policy family
// (fleet/coex, fleet/coexpf, fleet/coexedf) included, so a policy that
// starts allocating per window or regressing the scheduler hot path
// trips the bench gate.
func Suite() []Spec {
	specs := []Spec{tracerSpec(), linkmgrSpec(), gainctlSpec(), coexSnapshotSpec(), fig9Spec(), obsRecordSpec(), obsOffSpec()}
	for _, kind := range fleet.Kinds {
		specs = append(specs, fleetSpec(kind))
	}
	return append(specs,
		venueSpec("fleet/venue16x4", suiteWorkers),
		venueSpec("fleet/venue16x4w4", 4),
		aggregateStreamSpec(), movrdSpec())
}

// tracerSpec measures one steady-state TraceHInto in the furnished
// office at reflection order 1 (the highest a tracer traces) with two
// blockers standing — the innermost loop of every experiment, which
// must stay allocation-free.
func tracerSpec() Spec {
	rm := room.NewOffice5x5()
	rm.AddObstacle(room.Hand(geom.V(2.2, 2.0)))
	rm.AddObstacle(room.Body(geom.V(3.1, 3.4)))
	budget := channel.DefaultBudget()
	tr := channel.NewTracer(rm, budget.FreqHz, 1)
	tx, rx := geom.V(0.5, 0.5), geom.V(4.2, 3.7)
	var buf []channel.Path
	return Spec{
		Name:      "tracer/office1b",
		Warmup:    5,
		Reps:      30,
		OpsPerRep: 2000,
		Op: func() error {
			for i := 0; i < 2000; i++ {
				buf = tr.TraceHInto(buf[:0], tx, rx, channel.HeightAPM, channel.HeightHeadsetM)
			}
			if len(buf) == 0 {
				return fmt.Errorf("no paths traced")
			}
			return nil
		},
	}
}

// linkmgrSpec measures one pose-tracking controller step (direct +
// reflector evaluation including gain control) — the per-timestep cost of
// every live session.
func linkmgrSpec() Spec {
	rm := room.NewOffice5x5()
	rm.AddObstacle(room.Body(geom.V(2.4, 2.6)))
	budget := channel.DefaultBudget()
	tr := channel.NewTracer(rm, budget.FreqHz, 1)
	ap := radio.NewAP(geom.V(0.4, 0.4), antenna.Default(45), budget)
	hs := radio.NewHeadset(geom.V(3.4, 2.4), antenna.Default(60), budget)
	mgr := linkmgr.New(tr, ap, hs)
	dev := reflector.Default(geom.V(4.6, 4.6), 225)
	idx := mgr.AddReflector(dev)
	step := 0
	return Spec{
		Name:      "linkmgr/step",
		Warmup:    3,
		Reps:      20,
		OpsPerRep: 50,
		Setup: func() (func(), error) {
			return nil, mgr.AlignFromGeometry(idx)
		},
		Op: func() error {
			for i := 0; i < 50; i++ {
				step++
				st := mgr.Step(geom.V(3.4, 2.4), float64(40+step%40))
				if st.SNRdB == 0 {
					return fmt.Errorf("no link state")
				}
			}
			return nil
		},
	}
}

// gainctlSpec measures one §4.2 gain-control run — the galloping knee
// search and every leakage-loop fixed-point solve it probes — on its
// own, below the link manager. Each op drives the reflector at a fresh
// (external input, leakage) pair, stepping the TX beam and the drive
// level, so neither the device's fixed-point memo nor a previous run's
// probes short-circuit the work.
func gainctlSpec() Spec {
	dev := reflector.Default(geom.V(4.6, 4.6), 225)
	dev.SetRXBeam(225)
	var opt gainctl.Optimizer
	cfg := gainctl.DefaultConfig()
	step := 0
	return Spec{
		Name:      "gainctl/optimize",
		Warmup:    3,
		Reps:      20,
		OpsPerRep: 200,
		Op: func() error {
			for i := 0; i < 200; i++ {
				step++
				dev.SetTXBeam(float64(165 + step%121))
				res := opt.Optimize(dev, -75+float64(step%451)*0.1, cfg)
				if res.Word < 0 {
					return fmt.Errorf("no gain word programmed")
				}
			}
			return nil
		},
	}
}

// coexSnapshotSpec measures the room's schedule table: building the
// full pose table and window-schedule table for a four-player shared
// bay (coex.BuildGeometry — one airtime-policy evaluation per window
// over the horizon) and then serving one session's schedule reads from
// it across every window. This is the per-room cost the fleet generator
// pays once; sessions only read the table.
func coexSnapshotSpec() Spec {
	const dur = 2 * time.Second
	traces := make([]vr.Trace, 4)
	var genErr error
	for i := range traces {
		trCfg := vr.DefaultTraceConfig(8, 8, int64(20+i))
		trCfg.Duration = dur
		traces[i], genErr = vr.Generate(trCfg)
		if genErr != nil {
			break
		}
	}
	rm := coex.Room{
		Players:    traces,
		Period:     50 * time.Millisecond,
		Policy:     coex.PolicyPF,
		UplinkSlot: 300 * time.Microsecond,
	}
	return Spec{
		Name:   "coex/snapshot",
		Warmup: 3,
		Reps:   20,
		Op: func() error {
			if genErr != nil {
				return genErr
			}
			geo, err := experiments.BuildCoexGeometry(rm, dur)
			if err != nil {
				return err
			}
			snap := rm
			snap.Geometry = geo
			s, err := coex.NewScheduler(snap)
			if err != nil {
				return err
			}
			sum := 0.0
			for t := time.Duration(0); t < dur; t += time.Millisecond {
				sum += s.Share(t)
			}
			if sum <= 0 {
				return fmt.Errorf("schedule never granted airtime")
			}
			return nil
		},
	}
}

// fig9Spec measures a reduced Fig 9 trial set (the §5.2 SNR-improvement
// study): placement, LOS read, Opt-NLOS sweep, and MoVR reflector
// evaluation per trial.
func fig9Spec() Spec {
	cfg := experiments.Fig9Config{Runs: 2, NLOSStepDeg: 6, Seed: 1, Runner: pool.NewRunner(1)}
	return Spec{
		Name:   "fig9/trial",
		Warmup: 2,
		Reps:   10,
		Op: func() error {
			res, err := experiments.Fig9(context.Background(), cfg)
			if err != nil {
				return err
			}
			if len(res.MoVRImp) != cfg.Runs {
				return fmt.Errorf("trial count = %d, want %d", len(res.MoVRImp), cfg.Runs)
			}
			return nil
		},
	}
}

// obsRecordSpec prices one enabled-recorder Emit in steady state — the
// marginal cost tracing adds to every instrumented event site once the
// ring buffer has wrapped. Pairs with obs/off below to show the
// enabled-vs-disabled overhead in one report.
func obsRecordSpec() Spec {
	rec := obs.NewRecorder(1024)
	return Spec{
		Name:      "obs/record",
		Warmup:    3,
		Reps:      20,
		OpsPerRep: 100000,
		Op: func() error {
			for i := 0; i < 100000; i++ {
				rec.EmitAt(time.Duration(i), obs.KindFrameOK, int32(i), 0, 0.5, 0)
			}
			if rec.Len() == 0 {
				return fmt.Errorf("recorder captured nothing")
			}
			return nil
		},
	}
}

// obsOffSpec prices the same event site with tracing disabled: every
// instrumented package calls through a nil *Recorder, so this is the
// cost untraced production runs pay — it must stay at a nil check.
func obsOffSpec() Spec {
	var rec *obs.Recorder
	return Spec{
		Name:      "obs/off",
		Warmup:    3,
		Reps:      20,
		OpsPerRep: 100000,
		Op: func() error {
			for i := 0; i < 100000; i++ {
				rec.EmitAt(time.Duration(i), obs.KindFrameOK, int32(i), 0, 0.5, 0)
			}
			if rec.Len() != 0 {
				return fmt.Errorf("nil recorder captured events")
			}
			return nil
		},
	}
}

// fleetSpec measures a small fleet run of the given scenario kind: spec
// generation plus concurrent session simulation and aggregation.
func fleetSpec(kind fleet.Kind) Spec {
	cfg := fleet.ScenarioConfig{
		Seed:         1,
		Duration:     500 * time.Millisecond,
		ReEvalPeriod: 50 * time.Millisecond,
	}
	specs, specErr := kind.Specs(4, cfg)
	return Spec{
		Name:   "fleet/" + string(kind),
		Warmup: 2,
		Reps:   10,
		Op: func() error {
			if specErr != nil {
				return specErr
			}
			res, err := fleet.Run(context.Background(), specs, fleet.Config{Workers: suiteWorkers})
			if err != nil {
				return err
			}
			if res.Agg.Sessions != len(specs) {
				return fmt.Errorf("sessions = %d, want %d", res.Agg.Sessions, len(specs))
			}
			return nil
		},
	}
}

// venueSpec measures the venue scenario at its quickstart scale — 16
// bays × 4 players, 64 sessions — through the streaming collector, the
// aggregation path venue jobs default to (StreamCollectorFor keeps RSS
// constant however many bays the venue grows). The run covers the whole
// venue pipeline: bay grid layout, greedy channel coloring, per-bay
// geometry snapshots, cross-bay interference tables, and the penalized
// bay-batched session simulations. The suite carries it at two pinned
// worker widths (fleet/venue16x4 at the suite default, fleet/venue16x4w4
// at 4 workers) so scaling regressions in the bay-batched pool path show
// up; each entry's width is part of its name, keeping every cross-report
// comparison like for like. The alloc bound is a hard run-time ceiling
// set at the pre-bay-batching baseline (~21.5k allocs/op): the scratch
// reuse that batching bought must never silently erode past where the
// per-session path started.
func venueSpec(name string, workers int) Spec {
	cfg := fleet.ScenarioConfig{
		Seed:         1,
		Duration:     500 * time.Millisecond,
		ReEvalPeriod: 50 * time.Millisecond,
	}
	specs, specErr := fleet.Venue(16, 4, cfg)
	return Spec{
		Name:       name,
		Warmup:     1,
		Reps:       5,
		AllocBound: 21500,
		Op: func() error {
			if specErr != nil {
				return specErr
			}
			col := fleet.StreamCollectorFor(specs)
			res, err := fleet.RunCollect(context.Background(), specs, fleet.Config{Workers: workers}, col)
			if err != nil {
				return err
			}
			if res.Agg.Sessions != len(specs) || len(specs) != 64 {
				return fmt.Errorf("sessions = %d of %d specs, want 64", res.Agg.Sessions, len(specs))
			}
			return nil
		},
	}
}

// aggregateStreamSpec prices one session fold into the streaming
// collector — the per-session cost that replaces holding a
// SessionOutcome in memory when a job runs with agg:"stream". The fold
// is the constant-memory guarantee's hot path, so it must stay
// allocation-free: the suite's zero alloc-regression gate pins it at 0
// allocs/op.
func aggregateStreamSpec() Spec {
	var col *fleet.StreamCollector
	outcome := fleet.SessionOutcome{
		ID: "bench/s0",
		Report: stream.Report{
			Frames:        7200,
			Delivered:     7000,
			Glitches:      200,
			GlitchFrac:    200.0 / 7200,
			LongestOutage: 120 * time.Millisecond,
			TotalOutage:   340 * time.Millisecond,
		},
		DeliveredFrac: 7000.0 / 7200,
		Handoffs:      3,
	}
	return Spec{
		Name:      "server/aggregate_stream",
		Warmup:    3,
		Reps:      20,
		OpsPerRep: 100000,
		Setup: func() (func(), error) {
			col = fleet.NewStreamCollector(10)
			return nil, nil
		},
		Op: func() error {
			for i := 0; i < 100000; i++ {
				col.Add(i, outcome)
			}
			if col.Result().Stream.Sessions == 0 {
				return fmt.Errorf("collector folded nothing")
			}
			return nil
		},
	}
}

// movrdSpec measures the daemon's submit→result round trip in process:
// spec decode, normalization and hashing, scheduling onto the shared
// pool, fleet execution, result encoding — everything but the TCP socket.
// Every repetition submits a distinct seed, so the result cache never
// short-circuits the work being measured.
func movrdSpec() Spec {
	var srv *server.Server
	seed := 0
	return Spec{
		Name:   "movrd/submit",
		Warmup: 2,
		Reps:   10,
		Setup: func() (func(), error) {
			var err error
			srv, err = server.New(server.Options{Workers: suiteWorkers})
			if err != nil {
				return nil, err
			}
			return srv.Close, nil
		},
		Op: func() error {
			seed++
			body := fmt.Sprintf(
				`{"kind":"fleet","fleet":{"scenario":"home","sessions":2,"seed":%d,"duration_ms":200}}`, seed)
			req := httptest.NewRequest("POST", "/v1/jobs?wait=1", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				return fmt.Errorf("submit returned %d: %s", rec.Code, rec.Body.String())
			}
			var view struct {
				State  string `json:"state"`
				Cached bool   `json:"cached"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
				return err
			}
			if view.State != "done" {
				return fmt.Errorf("job state = %q, want done", view.State)
			}
			if view.Cached {
				return fmt.Errorf("job unexpectedly served from cache")
			}
			return nil
		},
	}
}
