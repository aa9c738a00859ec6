// Quickstart: build the paper's testbed, watch a hand blockage kill the
// direct mmWave link, and watch the MoVR reflector rescue it.
package main

import (
	"fmt"

	movr "github.com/movr-sim/movr"
)

func main() {
	// The 5 m × 5 m office with an AP in the south-west corner.
	world := movr.NewWorld(1)

	// A player mid-room, facing the far corner (head turned away from
	// the AP — Fig 2's first failure mode).
	headset := world.NewHeadsetAt(movr.V(3.4, 2.4), 60)

	// A MoVR reflector stuck high on the opposite-corner wall.
	device := movr.DefaultReflector(movr.V(4.6, 4.6), 225)

	mgr := movr.NewLinkManager(world.Tracer, world.AP, headset)
	mgr.AddAlignedReflector(device)

	fmt.Println("MoVR quickstart — cutting the cord in the 5x5 office")
	fmt.Println()

	state := mgr.Best()
	fmt.Printf("clear room:            %v\n", state)

	// The player raises a hand in front of the headset, toward the AP.
	hand := movr.Hand(movr.V(2.0, 1.5))
	world.Room.AddObstacle(hand)
	state = mgr.Best()
	fmt.Printf("hand blocks direct:    %v\n", state)

	// Another person walks between the player and the AP.
	world.Room.AddObstacle(movr.Body(movr.V(1.5, 1.2)))
	state = mgr.Best()
	fmt.Printf("plus a passer-by:      %v\n", state)

	world.Room.ClearObstacles()
	state = mgr.Best()
	fmt.Printf("obstacles cleared:     %v\n", state)

	req := movr.HTCViveRequirement()
	fmt.Printf("\nVR needs %.1f Gbps (SNR ≥ %.0f dB); the link manager kept it %v\n",
		req.RateBps/1e9, req.RequiredSNRdB(), state.MeetsRequirement)
}
