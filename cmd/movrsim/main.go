// Command movrsim reproduces the evaluation of "Cutting the Cord in
// Virtual Reality" (HotNets-XV, 2016) from the terminal.
//
// Usage:
//
//	movrsim [flags] <experiment>
//
// Experiments:
//
//	fig3       blockage impact on SNR and data rate (§3)
//	fig7       TX→RX leakage vs beam angles (§4.2)
//	fig8       beam-alignment accuracy (§5.1)
//	fig9       SNR improvement CDFs: LOS / Opt-NLOS / MoVR (§5.2)
//	battery    untethered battery-life analysis (§6)
//	latency    control-path latency budget (§6)
//	session    end-to-end VR streaming with pose tracking (§6 future work)
//	deployment multi-AP vs AP+reflector coverage and cost (§1)
//	map        room coverage heatmaps with and without MoVR
//	ablations  design-choice ablation tables
//	fleet      N concurrent sessions across diverse deployments
//	bench      performance suite → BENCH_<git-sha>.json (perf workflow)
//	all        everything above (except bench), in paper order
//
// Flags:
//
//	-seed N       random seed (default 1)
//	-runs N       Monte-Carlo runs where applicable (default: paper scale)
//	-fast         reduce run counts and sweep resolution for a quick pass
//	-workers N    worker-pool size for fleet, fig9, map and ablations (0 = all cores)
//	-sessions N   fleet session count (default 24; venue: its whole bay grid,
//	              bays × players per bay)
//	-scenario S   fleet scenario: mixed|arcade|home|dense|coex|coexpf|coexedf|venue
//	              (default mixed)
//	-players N    players sharing each coex bay's medium (coex family, default 4,
//	              max 8)
//	-coex-policy P airtime policy for coex bays: rr|pf|edf (coex family, default rr;
//	              the coexpf/coexedf scenarios force pf/edf)
//	-uplink D     pose-report uplink sub-slot reserved per player per scheduling
//	              window, e.g. 200us (coex family, default 0 = off); one that
//	              leaves a bay no downlink airtime is an error
//	-bays N       venue bay-grid size (venue scenario, default 4, max 64)
//	-channels N   venue channel budget for bay assignment (venue, default 3, max 4)
//	-assign M     venue channel assignment: color|fixed (venue, default color)
//	-interference-off
//	              disable cross-bay interference (venue; A/B studies)
//	-admission M  players beyond a bay's TDMA capacity: queue|reject (venue,
//	              default queue)
//	-agg M        fleet aggregation: exact (per-session outcomes in memory; the
//	              default except for venue) or stream (constant-memory fixed-bin
//	              sketches — percentiles within the sketch error bound; the
//	              venue default)
//	-trace P      write a per-session event trace to P (session and fleet only):
//	              Chrome trace-event JSON loadable in Perfetto; summarize
//	              with movrtrace -analyze P
//
// The fleet flags are validated and defaulted exactly like the movrd job
// API's fields: both go through fleet.Job.Resolve.
//
// Bench flags (see the README's "Performance workflow" section):
//
//	-bench-out P         report path (default BENCH_<git-sha>.json)
//	-bench-compare P     baseline to gate against (e.g. BENCH_baseline.json)
//	-bench-tol-pct F     allowed ns/op regression in percent (default 50)
//	-bench-alloc-tol F   allowed allocs/op regression (default 0)
//	-bench-cpuprofile D  write per-benchmark CPU profiles into directory D
//	-bench-memprofile D  write per-benchmark heap profiles into directory D
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	movr "github.com/movr-sim/movr"
	"github.com/movr-sim/movr/internal/bench"
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	runs := flag.Int("runs", 0, "Monte-Carlo runs (0 = paper default)")
	fast := flag.Bool("fast", false, "quick pass: fewer runs, coarser sweeps")
	workers := flag.Int("workers", 0, "worker-pool size for fleet, fig9, map and ablations (0 = all cores)")
	var ff fleetFlags
	ff.register(flag.CommandLine)
	tracePath := flag.String("trace", "", "write a per-session event trace (Perfetto-loadable Chrome JSON) — session and fleet only")
	benchOut := flag.String("bench-out", "", "bench report path (default BENCH_<git-sha>.json)")
	benchCompare := flag.String("bench-compare", "", "baseline BENCH_*.json to gate against")
	tol := bench.DefaultTolerance()
	benchTolPct := flag.Float64("bench-tol-pct", tol.TimePct, "allowed ns/op regression in percent")
	benchAllocTol := flag.Float64("bench-alloc-tol", tol.Allocs, "allowed allocs/op regression")
	benchCPUProf := flag.String("bench-cpuprofile", "", "directory for per-benchmark CPU profiles (<name>.cpu.pprof)")
	benchMemProf := flag.String("bench-memprofile", "", "directory for per-benchmark heap profiles (<name>.mem.pprof)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	// Resolve the fleet job up front: a bad knob is a usage error, not
	// something to discover inside the engine.
	job, err := ff.job(*seed, *fast)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	job.Trace = *tracePath != ""
	title := fleet.Kind(ff.scenario).Title()

	cmd := flag.Arg(0)
	if ff.agg != "" && cmd != "fleet" {
		fmt.Fprintf(os.Stderr, "movrsim: -agg is only meaningful with the fleet experiment\n\n")
		usage()
		os.Exit(2)
	}
	if *tracePath != "" && cmd != "fleet" && cmd != "session" {
		fmt.Fprintf(os.Stderr, "movrsim: -trace is only meaningful with the session and fleet experiments\n\n")
		usage()
		os.Exit(2)
	}
	// fig9, map, the ablations and the fleet fan out on one runner of
	// -workers slots.
	runner := pool.NewRunner(*workers)
	start := time.Now()
	switch cmd {
	case "fig3":
		runFig3(*seed, *runs, *fast)
	case "fig7":
		runFig7(*seed)
	case "fig8":
		runFig8(*seed, *runs, *fast)
	case "fig9":
		runFig9(*seed, *runs, runner, *fast)
	case "battery":
		fmt.Print(movr.RunBattery(movr.DefaultBatteryConfig()).Render())
	case "latency":
		fmt.Print(movr.RunLatency(movr.LatencyConfig{Seed: *seed}).Render())
	case "session":
		runSession(*seed, *fast, *tracePath)
	case "deployment":
		fmt.Print(movr.RunDeployment().Render())
	case "map":
		runMap(runner)
	case "ablations":
		runAblations(*seed, runner)
	case "fleet":
		runFleet(job, title, runner, *tracePath)
	case "bench":
		runBench(*benchOut, *benchCompare, *benchCPUProf, *benchMemProf, *benchTolPct, *benchAllocTol, *fast)
	case "all":
		runFig3(*seed, *runs, *fast)
		fmt.Println()
		runFig7(*seed)
		fmt.Println()
		runFig8(*seed, *runs, *fast)
		fmt.Println()
		runFig9(*seed, *runs, runner, *fast)
		fmt.Println()
		fmt.Print(movr.RunBattery(movr.DefaultBatteryConfig()).Render())
		fmt.Println()
		fmt.Print(movr.RunLatency(movr.LatencyConfig{Seed: *seed}).Render())
		fmt.Println()
		runSession(*seed, *fast, "")
		fmt.Println()
		fmt.Print(movr.RunDeployment().Render())
		fmt.Println()
		runMap(runner)
		fmt.Println()
		runAblations(*seed, runner)
		fmt.Println()
		runFleet(job, title, runner, "")
	default:
		fmt.Fprintf(os.Stderr, "movrsim: unknown experiment %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "\n[%s completed in %v]\n", cmd, time.Since(start).Truncate(time.Millisecond))
}

func usage() {
	fmt.Fprintf(os.Stderr, `movrsim — MoVR (HotNets'16) evaluation reproduction

usage: movrsim [flags] <fig3|fig7|fig8|fig9|battery|latency|session|deployment|map|ablations|fleet|bench|all>

flags:
`)
	flag.PrintDefaults()
}

func runFig3(seed int64, runs int, fast bool) {
	cfg := movr.DefaultFig3Config()
	cfg.Seed = seed
	if runs > 0 {
		cfg.Runs = runs
	}
	if fast {
		cfg.Runs = 6
		cfg.NLOSStepDeg = 5
	}
	fmt.Print(movr.RunFig3(cfg).Render())
}

func runFig7(seed int64) {
	cfg := movr.DefaultFig7Config()
	cfg.Seed = seed
	fmt.Print(movr.RunFig7(cfg).Render())
}

func runFig8(seed int64, runs int, fast bool) {
	cfg := movr.DefaultFig8Config()
	cfg.Seed = seed
	if runs > 0 {
		cfg.Runs = runs
	}
	if fast {
		cfg.Runs = 10
	}
	fmt.Print(movr.RunFig8(cfg).Render())
}

func runFig9(seed int64, runs int, runner *pool.Runner, fast bool) {
	cfg := movr.DefaultFig9Config()
	cfg.Seed = seed
	cfg.Runner = runner
	if runs > 0 {
		cfg.Runs = runs
	}
	if fast {
		cfg.Runs = 8
		cfg.NLOSStepDeg = 5
	}
	res, err := movr.RunFig9(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: fig9: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Render())
}

func runSession(seed int64, fast bool, tracePath string) {
	cfg := movr.DefaultSessionConfig()
	cfg.Seed = seed
	if fast {
		cfg.Duration = 8 * time.Second
	}
	// Per-variant recorders: the session experiment runs the same trace
	// through four system variants; each gets its own track in the
	// exported file.
	var recs map[experiments.SessionVariant]*obs.Recorder
	if tracePath != "" {
		recs = make(map[experiments.SessionVariant]*obs.Recorder, len(experiments.SessionVariants))
		for _, v := range experiments.SessionVariants {
			recs[v] = obs.NewRecorder(0)
		}
		cfg.ObsFor = func(v experiments.SessionVariant) *obs.Recorder { return recs[v] }
	}
	fmt.Print(movr.RunSession(cfg).Render())
	if tracePath != "" {
		tr := obs.Trace{}
		for _, v := range experiments.SessionVariants {
			tr.Sessions = append(tr.Sessions, obs.Collect("session/"+string(v), recs[v]))
		}
		writeTrace(tr, tracePath)
	}
}

// writeTrace writes an exported trace file, reporting success like the
// bench report path does.
func writeTrace(tr obs.Trace, path string) {
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
}

func runMap(runner *pool.Runner) {
	printMap(runner, false, "VR coverage — bare AP")
	fmt.Println()
	printMap(runner, true, "VR coverage — AP + MoVR reflector")
}

func printMap(runner *pool.Runner, withReflector bool, title string) {
	cfg := movr.DefaultHeatmapConfig(withReflector)
	cfg.Runner = runner
	res, err := movr.RunHeatmap(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: map: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Render(title))
}

// fleetFlags holds the fleet experiment's flags. They only name a
// fleet.Job's knobs: every rule and default is the job's own, so the
// CLI accepts and runs exactly what the movrd job API does.
type fleetFlags struct {
	scenario, policy, assign, admission, agg string
	sessions, players, bays, channels        int
	uplink                                   time.Duration
	interferenceOff                          bool
}

func (f *fleetFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.scenario, "scenario", "mixed", "fleet scenario: "+movr.FleetScenarioNames())
	fs.IntVar(&f.sessions, "sessions", 0, "fleet session count (0 = 24; venue: bays × players per bay)")
	fs.IntVar(&f.players, "players", 0, "players sharing each coex bay's medium (coex scenarios; 0 = 4)")
	fs.StringVar(&f.policy, "coex-policy", "", "airtime policy for coex bays: "+movr.CoexPolicyNames()+" (coex scenarios; default rr)")
	fs.DurationVar(&f.uplink, "uplink", 0, "pose-uplink sub-slot reserved per player per window (coex scenarios; 0 = off)")
	fs.IntVar(&f.bays, "bays", 0, "venue bay-grid size (venue scenario; 0 = 4)")
	fs.IntVar(&f.channels, "channels", 0, "venue channel budget for bay assignment (venue scenario; 0 = 3)")
	fs.StringVar(&f.assign, "assign", "", "venue channel assignment: "+movr.VenueAssignModeNames()+" (venue scenario; default color)")
	fs.BoolVar(&f.interferenceOff, "interference-off", false, "disable cross-bay interference (venue scenario)")
	fs.StringVar(&f.admission, "admission", "", "players beyond a bay's TDMA capacity: queue|reject (venue scenario; default queue)")
	fs.StringVar(&f.agg, "agg", "", `fleet aggregation: "exact" or "stream" (default stream for venue, exact otherwise)`)
}

// cliNames spells the fleet knobs by their flags in resolver errors.
var cliNames = fleet.Frontend{
	DefaultSessions: 24,

	Scenario: "-scenario", Sessions: "-sessions", Players: "-players",
	Policy: "-coex-policy", Uplink: "-uplink", Bays: "-bays", Channels: "-channels",
	Assign: "-assign", InterferenceOff: "-interference-off", Admission: "-admission",
	Agg: "-agg",
}

// job maps the flags onto the fleet job they describe and resolves it.
// A -fast run plays 2 s at a 100 ms cadence instead of 10 s at 50 ms.
func (f fleetFlags) job(seed int64, fast bool) (fleet.Job, error) {
	j := fleet.Job{
		Kind:     fleet.Kind(f.scenario),
		Sessions: f.sessions,
		Agg:      f.agg,
		Config: fleet.ScenarioConfig{
			Seed:                 seed,
			Duration:             10 * time.Second,
			HeadsetsPerRoom:      f.players,
			CoexPolicy:           movr.CoexPolicyName(f.policy),
			CoexUplink:           f.uplink,
			VenueBays:            f.bays,
			VenueChannels:        f.channels,
			VenueAssign:          movr.VenueAssignMode(f.assign),
			VenueInterferenceOff: f.interferenceOff,
			VenueAdmission:       f.admission,
		},
	}
	if fast {
		j.Config.Duration = 2 * time.Second
		j.Config.ReEvalPeriod = 100 * time.Millisecond
	}
	return j.Resolve(cliNames)
}

// runFleet runs a resolved fleet job and prints its report under title.
func runFleet(job fleet.Job, title string, runner *pool.Runner, tracePath string) {
	// Shared-medium runs lead with a self-describing header, so a saved
	// report records which airtime policy and bay population produced
	// it. Legacy scenarios print nothing extra — their output stays
	// byte-identical.
	c := job.Config
	if fleet.IsVenueKind(job.Kind) {
		fmt.Printf("venue: bays=%d players-per-bay=%d channels=%d assign=%s admission=%s policy=%s uplink=%v\n\n",
			c.VenueBays, c.HeadsetsPerRoom, c.VenueChannels, c.VenueAssign, c.VenueAdmission, c.CoexPolicy, c.CoexUplink)
	} else if fleet.IsCoexKind(job.Kind) {
		fmt.Printf("coex: policy=%s players=%d uplink=%v\n\n", c.CoexPolicy, c.HeadsetsPerRoom, c.CoexUplink)
	}
	res, tr, err := job.Run(context.Background(), fleet.Config{Runner: runner}, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: fleet: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Render(title))
	if tr != nil {
		writeTrace(*tr, tracePath)
	}
}

// runBench executes the named performance suite, writes the
// schema-versioned BENCH_<sha>.json report, and — when a baseline is
// given — gates the fresh numbers against it, exiting 1 on regression.
func runBench(outPath, comparePath, cpuProfDir, memProfDir string, tolPct, allocTol float64, fast bool) {
	rep, err := bench.Run(bench.Suite(), bench.Options{
		Fast:          fast,
		CPUProfileDir: cpuProfDir,
		MemProfileDir: memProfDir,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: bench: %v\n", err)
		os.Exit(1)
	}
	if outPath == "" {
		outPath = rep.FileName()
	}
	if err := rep.WriteFile(outPath); err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Render())
	fmt.Fprintf(os.Stderr, "bench: report written to %s\n", outPath)
	if comparePath == "" {
		return
	}
	base, err := bench.ReadFile(comparePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: bench: baseline: %v\n", err)
		os.Exit(1)
	}
	cmp := bench.Compare(base, rep, bench.Tolerance{TimePct: tolPct, Allocs: allocTol})
	fmt.Print(cmp.Render())
	if !cmp.OK() {
		os.Exit(1)
	}
}

func runAblations(seed int64, runner *pool.Runner) {
	fmt.Print(movr.RenderAblations(
		movr.RunAblationGainBackoff(seed, runner),
		movr.RunAblationPhaseBits(seed, runner),
		movr.RunAblationSweepStep(seed, runner),
	))
	fmt.Println()
	fmt.Print(movr.RenderTrackingAblation(movr.RunAblationTrackingPeriod(seed, runner)))
}
