// Alignment: run the §4.1 backscatter beam-alignment protocol verbosely.
//
// The MoVR reflector can neither transmit nor receive, yet the AP must
// discover the best (θ1, θ2) beam pair. The AP transmits a tone at f1;
// the reflector on/off-modulates its amplifier at f2; the AP separates
// the reflected energy (at f1±f2) from its own TX→RX leakage (at f1)
// with an FFT and picks the pair with the strongest sideband.
package main

import (
	"fmt"

	movr "github.com/movr-sim/movr"
)

func main() {
	world := movr.NewWorld(0)
	device := movr.DefaultReflector(movr.V(2.2, 5), 270) // north wall
	link := movr.NewControlLink(movr.NewController(device), 0)

	cfg := movr.DefaultAlignConfig()
	sweeper, err := movr.NewSweeper(world.AP, device, link, world.Tracer, cfg)
	if err != nil {
		panic(err)
	}

	fmt.Println("MoVR backscatter alignment (§4.1)")
	fmt.Printf("  modulation f2:      %.0f kHz\n", cfg.ModFreqHz/1e3)
	fmt.Printf("  AP leakage:         %.1f dBm at f1\n", world.AP.LeakagePowerDBm())
	fmt.Printf("  measurement floor:  %.1f dBm\n\n", world.AP.MeasNoiseFloorDBm())

	// A few raw protocol measurements across candidate reflector beams.
	fmt.Println("sideband power while sweeping the reflector beam (AP aimed correctly):")
	apBeam := 45.0 // AP corner faces the room diagonal; reflector is north
	for rel := -40.0; rel <= 40; rel += 10 {
		beam := 270 + rel
		p, err := sweeper.MeasureSidebandPower(apBeam+20, beam)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  θ1 = %5.1f°  →  %7.1f dBm\n", beam, p)
	}

	// The full hierarchical sweep.
	res, err := sweeper.Hierarchical()
	if err != nil {
		panic(err)
	}
	truth := world.AP.Pos.Sub(device.Pos())
	fmt.Printf("\nhierarchical sweep: %d measurements, %v total\n",
		res.Measurements, res.TotalTime().Truncate(1e6))
	fmt.Printf("  estimated incidence angle: %.1f°\n", res.ReflBeamDeg)
	fmt.Printf("  geometric ground truth:    %.1f°\n", truth.AngleDeg()+360)
	fmt.Printf("  peak sideband power:       %.1f dBm\n", res.PeakPowerDBm)

	// And the exhaustive reference sweep the paper describes.
	ex, err := sweeper.Exhaustive()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nexhaustive sweep: %d measurements, %v total (the slow path §6 warns about)\n",
		ex.Measurements, ex.TotalTime().Truncate(1e6))
	fmt.Printf("  estimated incidence angle: %.1f°\n", ex.ReflBeamDeg)
}
