// Command movrtrace summarizes the seeded VR motion traces the simulator
// generates (walking, head rotation, hand raises in the 5 m × 5 m
// office), and the structured event traces the simulator records
// (movrsim -trace, Chrome trace-event JSON).
//
// Usage:
//
//	movrtrace -seed 7 -duration 30s        # summarize seeded motion
//	movrtrace -analyze events.json         # summarize an event trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/vr"
)

func main() {
	seed := flag.Int64("seed", 1, "trace seed")
	duration := flag.Duration("duration", 30*time.Second, "trace duration")
	analyze := flag.String("analyze", "", "summarize a simulator event trace (movrsim -trace output, Chrome JSON)")
	flag.Parse()

	if *analyze != "" {
		analyzeFile(*analyze)
		return
	}

	cfg := vr.DefaultTraceConfig(5, 5, *seed)
	cfg.Duration = *duration
	trace, err := vr.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	printSummary(trace)
}

// analyzeFile summarizes a structured event trace: blockage episodes,
// handoff counts, worst deadline-miss bursts, and per-player airtime
// received vs entitled.
func analyzeFile(path string) {
	tr, err := obs.ReadTraceFile(path)
	if err != nil {
		fatal(err)
	}
	fmt.Print(obs.Analyze(tr).Render())
}

func printSummary(trace vr.Trace) {
	s := vr.Summarize(trace)
	fmt.Printf("samples:        %d (%v)\n", s.Samples, trace.Duration())
	fmt.Printf("distance:       %.1f m (%.2f m/s mean)\n", s.DistanceM, s.MeanSpeedMps)
	fmt.Printf("hand raised:    %.0f%% of the time\n", 100*s.HandUpFrac)
	fmt.Printf("yaw range:      %.0f°\n", s.YawRangeDeg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "movrtrace:", err)
	os.Exit(1)
}
