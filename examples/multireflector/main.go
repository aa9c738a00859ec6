// Multireflector: coverage of the 5×5 office with zero, one, and two
// MoVR reflectors, against the brute-force multi-AP alternative the
// paper dismisses for its cabling cost (§1).
//
// For a grid of headset poses (always facing away from the AP — the
// adversarial orientation), we ask: does some path sustain the VR rate?
package main

import (
	"fmt"

	movr "github.com/movr-sim/movr"
)

func main() {
	req := movr.HTCViveRequirement()
	fmt.Println("Coverage under adversarial head orientation (facing away from AP)")
	fmt.Printf("requirement: %.1f Gbps\n\n", req.RateBps/1e9)

	type deployment struct {
		name   string
		mounts [][3]float64 // x, y, mountDeg
	}
	deployments := []deployment{
		{"no reflectors", nil},
		{"one reflector (far corner)", [][3]float64{{4.6, 4.6, 225}}},
		{"two reflectors (far + east wall)", [][3]float64{{4.6, 4.6, 225}, {5, 2.5, 180}}},
	}

	for _, dep := range deployments {
		covered, total := coverage(dep.mounts)
		fmt.Printf("%-34s %3d/%3d poses covered (%.0f%%)\n",
			dep.name, covered, total, 100*float64(covered)/float64(total))
	}

	// The multi-AP alternative: full APs in two corners — works, but
	// each needs an HDMI run back to the PC.
	world := movr.NewWorld(1)
	deploy := movr.MultiAP{APs: []*movr.AP{
		world.AP,
		movr.NewAP(movr.V(4.7, 4.7), movr.DefaultArray(225), movr.DefaultBudget()),
	}}
	fmt.Printf("\nmulti-AP alternative needs %.1f m of HDMI cabling (PC at the corner)\n",
		deploy.CablingM(movr.V(0.3, 0.3)))
	fmt.Println("— the \"enormous cabling complexity\" §1 rejects; MoVR reflectors need only power.")
}

// coverage counts grid poses where some path meets the VR requirement.
func coverage(mounts [][3]float64) (covered, total int) {
	req := movr.HTCViveRequirement()
	for x := 1.0; x <= 4.0; x += 0.75 {
		for y := 1.0; y <= 4.0; y += 0.75 {
			world := movr.NewWorld(1)
			pos := movr.V(x, y)
			// Face directly away from the AP.
			away := pos.Sub(world.AP.Pos).AngleDeg()
			headset := world.NewHeadsetAt(pos, away)
			mgr := movr.NewLinkManager(world.Tracer, world.AP, headset)
			for _, m := range mounts {
				dev := movr.DefaultReflector(movr.V(m[0], m[1]), m[2])
				mgr.AddAlignedReflector(dev)
			}
			total++
			if st := mgr.Best(); req.MetByRate(st.RateBps) {
				covered++
			}
		}
	}
	return covered, total
}
