package movr_test

import (
	"context"
	"fmt"
	"reflect"
	"time"

	movr "github.com/movr-sim/movr"
)

// The 802.11ad rate table converts measured SNR into data rate, exactly
// as the paper's Fig 3 does.
func ExampleGbpsAtSNR() {
	fmt.Printf("at 25 dB: %.2f Gb/s\n", movr.GbpsAtSNR(25))
	fmt.Printf("at  9 dB: %.2f Gb/s\n", movr.GbpsAtSNR(9))
	fmt.Printf("at -6 dB: %.2f Gb/s\n", movr.GbpsAtSNR(-6))
	// Output:
	// at 25 dB: 6.76 Gb/s
	// at  9 dB: 2.77 Gb/s
	// at -6 dB: 0.03 Gb/s
}

// The testbed headset demands multiple Gbps within a 10 ms deadline.
func ExampleHTCVive() {
	d := movr.HTCVive()
	req := movr.HTCViveRequirement()
	fmt.Println(d)
	fmt.Printf("required SNR: %.0f dB\n", req.RequiredSNRdB())
	// Output:
	// 2160x1200@90Hz (5.6 Gbps raw)
	// required SNR: 13 dB
}

// Cutting the USB power cable too: the §6 battery substitution.
func ExampleRunBattery() {
	r := movr.RunBattery(movr.DefaultBatteryConfig())
	fmt.Printf("typical runtime: %.1f h (paper claims %.0f-%.0f h)\n",
		r.TypicalHours, r.PaperClaimLoHrs, r.PaperClaimHiHrs)
	// Output:
	// typical runtime: 4.5 h (paper claims 4-5 h)
}

// A clear line-of-sight link in the office delivers the paper's Fig 3
// LOS regime.
func ExampleWorld() {
	world := movr.NewWorld(1)
	headset := world.NewHeadsetAt(movr.V(3, 3), 0)
	snr := world.AlignedLOSSNR(headset)
	fmt.Printf("LOS sustains VR: %v\n", movr.HTCViveRequirement().MetBySNR(snr))
	// Output:
	// LOS sustains VR: true
}

// A fleet split into shards on whole-bay boundaries runs anywhere, in
// any order, and the shard results merge back into the unsharded
// result: here the four-player arcade bay of a mixed fleet, then its
// homes and cluttered offices.
func ExampleMergeFleetShardResults() {
	specs := movr.MixedFleet(12, movr.FleetScenarioConfig{
		Duration:     time.Second,
		ReEvalPeriod: 100 * time.Millisecond,
		Seed:         1,
	})
	run := func(specs []movr.FleetSpec) movr.FleetResult {
		res, err := movr.RunFleet(context.Background(), specs, movr.FleetConfig{})
		if err != nil {
			panic(err)
		}
		return res
	}
	merged, err := movr.MergeFleetShardResults(run(specs[:4]), run(specs[4:]))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d sessions, %d frames\n", merged.Agg.Sessions, merged.Agg.Frames)
	fmt.Println("merged equals unsharded:", reflect.DeepEqual(merged.Agg, run(specs).Agg))
	// Output:
	// 12 sessions, 1080 frames
	// merged equals unsharded: true
}
