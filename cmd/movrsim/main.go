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
//	-workers N    worker-pool size for fleet, fig9 and map (0 = all cores)
//	-sessions N   fleet session count (default 24)
//	-scenario S   fleet scenario: mixed|arcade|home|dense|coex|coexpf|coexedf
//	              (default mixed)
//	-players N    players sharing each coex bay's medium (coex family, default 4)
//	-coex-policy P airtime policy for coex bays: rr|pf|edf (coex family, default rr;
//	              the coexpf/coexedf scenarios force pf/edf)
//	-uplink D     pose-report uplink sub-slot reserved per player per scheduling
//	              window, e.g. 200us (coex family, default 0 = off)
//	-bays N       venue bay-grid size (venue scenario, default 4, max 64)
//	-players-per-bay N
//	              players per venue bay — alias of -players for the venue
//	              quickstart (venue scenario, default 4)
//	-channels N   venue channel budget for bay assignment (venue, default 3, max 4)
//	-assign M     venue channel assignment: color|fixed (venue, default color)
//	-interference-off
//	              disable cross-bay interference (venue; A/B studies)
//	-admission M  players beyond a bay's TDMA capacity: queue|reject (venue,
//	              default queue)
//	-agg M        fleet aggregation: exact (default; legacy output, per-session
//	              outcomes in memory) or stream (constant-memory mergeable
//	              sketches — percentiles within the sketch error bound)
//	-shard I/N    run only fleet shard I of N (contiguous session ranges,
//	              0-indexed); shard outputs merge deterministically, see the
//	              README's "Running movrd at scale"
//	-trace P      write a per-session event trace to P (session and fleet only):
//	              Chrome trace-event JSON loadable in Perfetto, or JSONL when P
//	              ends in .jsonl; summarize with movrtrace -analyze P
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
	"github.com/movr-sim/movr/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	runs := flag.Int("runs", 0, "Monte-Carlo runs (0 = paper default)")
	fast := flag.Bool("fast", false, "quick pass: fewer runs, coarser sweeps")
	workers := flag.Int("workers", 0, "worker-pool size for fleet, fig9 and map (0 = all cores)")
	sessions := flag.Int("sessions", 24, "fleet session count")
	scenario := flag.String("scenario", "mixed", "fleet scenario: "+movr.FleetScenarioNames())
	players := flag.Int("players", 0, "players sharing each coex bay's medium (coex scenarios; 0 = 4)")
	coexPolicy := flag.String("coex-policy", "", "airtime policy for coex bays: "+movr.CoexPolicyNames()+" (coex scenarios; default rr)")
	uplink := flag.Duration("uplink", 0, "pose-uplink sub-slot reserved per player per window (coex scenarios; 0 = off)")
	bays := flag.Int("bays", 0, "venue bay-grid size (venue scenario; 0 = 4)")
	playersPerBay := flag.Int("players-per-bay", 0, "players per venue bay (venue scenario; alias of -players; 0 = 4)")
	channels := flag.Int("channels", 0, "venue channel budget for bay assignment (venue scenario; 0 = 3)")
	assign := flag.String("assign", "", "venue channel assignment: "+movr.VenueAssignModeNames()+" (venue scenario; default color)")
	interferenceOff := flag.Bool("interference-off", false, "disable cross-bay interference (venue scenario)")
	admission := flag.String("admission", "", "players beyond a bay's TDMA capacity: queue|reject (venue scenario; default queue)")
	tracePath := flag.String("trace", "", "write a per-session event trace (Perfetto-loadable Chrome JSON; use a .jsonl path for JSONL) — session and fleet only")
	aggMode := flag.String("agg", "", `fleet aggregation: "exact" (default) or "stream"`)
	shardSpec := flag.String("shard", "", "run only fleet shard I/N (e.g. 1/4) — fleet only")
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
	// Validate the fleet knobs up front — a bad value is a usage error,
	// not something to discover inside the engine.
	if *sessions <= 0 {
		fmt.Fprintf(os.Stderr, "movrsim: -sessions %d must be positive\n\n", *sessions)
		usage()
		os.Exit(2)
	}
	kind, err := movr.ParseFleetScenario(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	// -players-per-bay is the venue quickstart's spelling of -players;
	// fold it in before the shared bounds checks.
	if *playersPerBay != 0 {
		switch {
		case !movr.IsVenueFleetScenario(kind):
			fmt.Fprintf(os.Stderr, "movrsim: -players-per-bay is only meaningful with the venue scenario\n\n")
			usage()
			os.Exit(2)
		case *players != 0 && *players != *playersPerBay:
			fmt.Fprintf(os.Stderr, "movrsim: -players %d conflicts with -players-per-bay %d\n\n", *players, *playersPerBay)
			usage()
			os.Exit(2)
		}
		*players = *playersPerBay
	}
	// -players mirrors the daemon's headsets_per_room validation: only
	// meaningful for the coex scenario family, bounded the same way.
	if *players != 0 {
		switch {
		case !movr.IsCoexFleetScenario(kind):
			fmt.Fprintf(os.Stderr, "movrsim: -players is only meaningful with the coex scenarios\n\n")
			usage()
			os.Exit(2)
		case *players < 0:
			fmt.Fprintf(os.Stderr, "movrsim: -players %d must be positive\n\n", *players)
			usage()
			os.Exit(2)
		case *players > movr.MaxCoexHeadsets:
			fmt.Fprintf(os.Stderr, "movrsim: -players %d exceeds the limit of %d\n\n", *players, movr.MaxCoexHeadsets)
			usage()
			os.Exit(2)
		}
	}
	// -coex-policy mirrors the daemon's coex_policy validation,
	// including the rule that a policy-suffixed scenario must not carry
	// a conflicting explicit policy.
	policy, err := movr.ParseCoexPolicy(*coexPolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	if *coexPolicy != "" && !movr.IsCoexFleetScenario(kind) {
		fmt.Fprintf(os.Stderr, "movrsim: -coex-policy is only meaningful with the coex scenarios\n\n")
		usage()
		os.Exit(2)
	}
	forced := map[movr.FleetScenarioKind]movr.CoexPolicyName{
		movr.FleetScenarioCoexPF:  movr.CoexPolicyPF,
		movr.FleetScenarioCoexEDF: movr.CoexPolicyEDF,
	}
	if want, ok := forced[kind]; ok {
		if *coexPolicy != "" && policy != want {
			fmt.Fprintf(os.Stderr, "movrsim: -scenario %s conflicts with -coex-policy %s\n\n", kind, *coexPolicy)
			usage()
			os.Exit(2)
		}
		policy = want
	}
	if *uplink != 0 {
		switch {
		case !movr.IsCoexFleetScenario(kind):
			fmt.Fprintf(os.Stderr, "movrsim: -uplink is only meaningful with the coex scenarios\n\n")
			usage()
			os.Exit(2)
		case *uplink < 0:
			fmt.Fprintf(os.Stderr, "movrsim: -uplink %v must not be negative\n\n", *uplink)
			usage()
			os.Exit(2)
		}
	}

	// The venue knobs mirror the daemon's bays/channels/assign/admission
	// validation.
	if (*bays != 0 || *channels != 0 || *assign != "" || *interferenceOff || *admission != "") &&
		!movr.IsVenueFleetScenario(kind) {
		fmt.Fprintf(os.Stderr, "movrsim: -bays, -channels, -assign, -interference-off and -admission are only meaningful with the venue scenario\n\n")
		usage()
		os.Exit(2)
	}
	if *bays < 0 || *bays > movr.MaxVenueBays {
		fmt.Fprintf(os.Stderr, "movrsim: -bays %d must be in [1,%d]\n\n", *bays, movr.MaxVenueBays)
		usage()
		os.Exit(2)
	}
	if *channels < 0 || *channels > movr.MaxVenueChannels {
		fmt.Fprintf(os.Stderr, "movrsim: -channels %d must be in [1,%d]\n\n", *channels, movr.MaxVenueChannels)
		usage()
		os.Exit(2)
	}
	assignMode, err := movr.ParseVenueAssignMode(*assign)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: -assign: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	admitMode, err := movr.ParseVenueAdmission(*admission)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: -admission: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	// A venue's natural size is its whole bay grid: unless -sessions was
	// given explicitly, size the fleet to bays × players-per-bay so
	// `-scenario venue -bays 16 -players-per-bay 4` runs all 64 sessions.
	if movr.IsVenueFleetScenario(kind) {
		sessionsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "sessions" {
				sessionsSet = true
			}
		})
		if !sessionsSet {
			effBays, effPPB := *bays, *players
			if effBays <= 0 {
				effBays = movr.DefaultVenueBays
			}
			if effPPB <= 0 {
				effPPB = movr.DefaultCoexHeadsets
			}
			*sessions = effBays * effPPB
		}
	}

	switch *aggMode {
	case "", "exact", "stream":
	default:
		fmt.Fprintf(os.Stderr, "movrsim: -agg %q must be exact or stream\n\n", *aggMode)
		usage()
		os.Exit(2)
	}
	shard, err := parseShard(*shardSpec, *sessions)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: %v\n\n", err)
		usage()
		os.Exit(2)
	}

	cmd := flag.Arg(0)
	if (*aggMode != "" || *shardSpec != "") && cmd != "fleet" {
		fmt.Fprintf(os.Stderr, "movrsim: -agg and -shard are only meaningful with the fleet experiment\n\n")
		usage()
		os.Exit(2)
	}
	if *tracePath != "" && cmd != "fleet" && cmd != "session" {
		fmt.Fprintf(os.Stderr, "movrsim: -trace is only meaningful with the session and fleet experiments\n\n")
		usage()
		os.Exit(2)
	}
	vf := venueFlags{
		bays:            *bays,
		channels:        *channels,
		assign:          assignMode,
		interferenceOff: *interferenceOff,
		admission:       admitMode,
	}
	start := time.Now()
	switch cmd {
	case "fig3":
		runFig3(*seed, *runs, *fast)
	case "fig7":
		runFig7(*seed)
	case "fig8":
		runFig8(*seed, *runs, *fast)
	case "fig9":
		runFig9(*seed, *runs, *workers, *fast)
	case "battery":
		fmt.Print(movr.RunBattery(movr.DefaultBatteryConfig()).Render())
	case "latency":
		fmt.Print(movr.RunLatency(movr.LatencyConfig{Seed: *seed}).Render())
	case "session":
		runSession(*seed, *fast, *tracePath)
	case "deployment":
		fmt.Print(movr.RunDeployment().Render())
	case "map":
		runMap(*workers)
	case "ablations":
		runAblations(*seed)
	case "fleet":
		runFleet(*seed, *workers, *sessions, *players, policy, *uplink, kind, *fast, *tracePath, *aggMode, shard, vf)
	case "bench":
		runBench(*benchOut, *benchCompare, *benchCPUProf, *benchMemProf, *benchTolPct, *benchAllocTol, *fast)
	case "all":
		runFig3(*seed, *runs, *fast)
		fmt.Println()
		runFig7(*seed)
		fmt.Println()
		runFig8(*seed, *runs, *fast)
		fmt.Println()
		runFig9(*seed, *runs, *workers, *fast)
		fmt.Println()
		fmt.Print(movr.RunBattery(movr.DefaultBatteryConfig()).Render())
		fmt.Println()
		fmt.Print(movr.RunLatency(movr.LatencyConfig{Seed: *seed}).Render())
		fmt.Println()
		runSession(*seed, *fast, "")
		fmt.Println()
		fmt.Print(movr.RunDeployment().Render())
		fmt.Println()
		runMap(*workers)
		fmt.Println()
		runAblations(*seed)
		fmt.Println()
		runFleet(*seed, *workers, *sessions, *players, policy, *uplink, kind, *fast, "", "", nil, vf)
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

func runFig9(seed int64, runs, workers int, fast bool) {
	cfg := movr.DefaultFig9Config()
	cfg.Seed = seed
	cfg.Workers = workers
	if runs > 0 {
		cfg.Runs = runs
	}
	if fast {
		cfg.Runs = 8
		cfg.NLOSStepDeg = 5
	}
	fmt.Print(movr.RunFig9(cfg).Render())
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

func runMap(workers int) {
	bare := movr.DefaultHeatmapConfig(false)
	bare.Workers = workers
	with := movr.DefaultHeatmapConfig(true)
	with.Workers = workers
	fmt.Print(movr.RunHeatmap(bare).Render("VR coverage — bare AP"))
	fmt.Println()
	fmt.Print(movr.RunHeatmap(with).Render("VR coverage — AP + MoVR reflector"))
}

// parseShard parses "I/N" into a validated FleetShard (nil when the
// flag is unset or names the whole fleet, keeping output byte-identical
// to an unsharded run).
func parseShard(s string, sessions int) (*movr.FleetShard, error) {
	if s == "" {
		return nil, nil
	}
	var idx, count int
	if n, err := fmt.Sscanf(s, "%d/%d", &idx, &count); n != 2 || err != nil {
		return nil, fmt.Errorf("-shard %q must be I/N, e.g. 1/4", s)
	}
	sh := movr.FleetShard{Index: idx, Count: count}
	if err := sh.Validate(); err != nil {
		return nil, fmt.Errorf("-shard %q: %w", s, err)
	}
	if count > sessions {
		return nil, fmt.Errorf("-shard %q: %d shards exceed %d sessions", s, count, sessions)
	}
	if count == 1 {
		return nil, nil
	}
	return &sh, nil
}

// venueFlags bundles the venue scenario's CLI knobs for runFleet.
type venueFlags struct {
	bays, channels  int
	assign          movr.VenueAssignMode
	interferenceOff bool
	admission       string
}

func runFleet(seed int64, workers, sessions, players int, policy movr.CoexPolicyName, uplink time.Duration, kind movr.FleetScenarioKind, fast bool, tracePath string, aggMode string, shard *movr.FleetShard, vf venueFlags) {
	cfg := movr.FleetScenarioConfig{
		Seed:                 seed,
		Duration:             10 * time.Second,
		HeadsetsPerRoom:      players,
		CoexPolicy:           policy,
		CoexUplink:           uplink,
		VenueBays:            vf.bays,
		VenueChannels:        vf.channels,
		VenueAssign:          vf.assign,
		VenueInterferenceOff: vf.interferenceOff,
		VenueAdmission:       vf.admission,
	}
	if fast {
		cfg.Duration = 2 * time.Second
		cfg.ReEvalPeriod = 100 * time.Millisecond
	}
	// Shared-medium runs lead with a self-describing header, so a saved
	// report records which airtime policy and bay population produced
	// it. Legacy scenarios print nothing extra — their output stays
	// byte-identical.
	if movr.IsVenueFleetScenario(kind) {
		perRoom := players
		if perRoom <= 0 {
			perRoom = movr.DefaultCoexHeadsets
		}
		bays := vf.bays
		if bays <= 0 {
			bays = movr.DefaultVenueBays
		}
		channels := vf.channels
		if channels <= 0 {
			channels = movr.DefaultVenueChannels
		}
		fmt.Printf("venue: bays=%d players-per-bay=%d channels=%d assign=%s admission=%s policy=%s uplink=%v\n\n",
			bays, perRoom, channels, vf.assign, vf.admission, policy, uplink)
	} else if movr.IsCoexFleetScenario(kind) {
		perRoom := players
		if perRoom <= 0 {
			perRoom = movr.DefaultCoexHeadsets
		}
		fmt.Printf("coex: policy=%s players=%d uplink=%v\n\n", policy, perRoom, uplink)
	}
	// The spec set comes from the same generator the movrd job API
	// uses, so CLI runs and server jobs cannot drift apart.
	specs, err := kind.Specs(sessions, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: fleet: %v\n", err)
		os.Exit(1)
	}
	// The streaming collector's sketch ranges come from the full spec
	// set before any shard slice, so shard states stay mergeable.
	var col movr.FleetCollector
	if aggMode == "stream" {
		col = movr.NewFleetStreamCollector(specs)
	}
	title := kind.Title()
	if shard != nil {
		// Bay-aligned slicing: no shard splits a bay, so every shard
		// keeps the bay-batched execution path and merged results still
		// reassemble the full run exactly.
		specs = shard.SliceAligned(specs)
		title += fmt.Sprintf(" [shard %d/%d]", shard.Index, shard.Count)
	}
	var recs []*obs.Recorder
	if tracePath != "" {
		recs = fleet.AttachTraceRecorders(specs, 0)
	}
	res, err := movr.RunFleetCollect(context.Background(), specs, movr.FleetConfig{Workers: workers}, col)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrsim: fleet: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Render(title))
	if tracePath != "" {
		writeTrace(fleet.CollectTrace(specs, recs), tracePath)
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

func runAblations(seed int64) {
	fmt.Print(movr.RenderAblations(
		movr.RunAblationGainBackoff(seed),
		movr.RunAblationPhaseBits(seed),
		movr.RunAblationSweepStep(seed),
	))
	fmt.Println()
	fmt.Print(movr.RenderTrackingAblation(movr.RunAblationTrackingPeriod(seed)))
}
