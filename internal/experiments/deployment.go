package experiments

import (
	"fmt"
	"strings"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/baseline"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/linkmgr"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
)

// DeploymentRow compares one deployment option.
type DeploymentRow struct {
	Name string

	// CoverageFrac is the fraction of (position, orientation) poses at
	// which some path meets the VR rate.
	CoverageFrac float64

	// CablingM is the HDMI cable run the option needs (reflectors need
	// none — only power).
	CablingM float64

	// FullTransceivers counts complete mmWave radios (the cost driver
	// §1 cites: "multiple full-fledged mmWave transceivers will
	// significantly increase the cost").
	FullTransceivers int
}

// DeploymentResult is the §1 deployment-alternatives comparison.
type DeploymentResult struct {
	Rows  []DeploymentRow
	Poses int
}

// Deployment quantifies the paper's §1 argument against the "naïve
// solution" of deploying multiple mmWave transmitters: it compares a
// single AP, multi-AP deployments, and one AP plus MoVR reflectors on a
// grid of headset positions × head orientations, counting VR-grade
// coverage, cabling, and full-transceiver cost.
func Deployment() DeploymentResult {
	req := phy.HTCViveRequirement()
	pcPos := geom.V(0.3, 0.3)

	apMounts := [][3]float64{{0.4, 0.4, 45}, {4.6, 4.6, 225}, {0.4, 4.6, 315}}
	reflMounts := [][3]float64{{4.6, 4.6, 225}, {0, 2.5, 0}}

	type option struct {
		name  string
		nAPs  int
		nRefl int
	}
	options := []option{
		{"1 AP (no MoVR)", 1, 0},
		{"2 APs", 2, 0},
		{"3 APs", 3, 0},
		{"1 AP + 1 reflector", 1, 1},
		{"1 AP + 2 reflectors", 1, 2},
	}

	res := DeploymentResult{}
	for _, opt := range options {
		covered, poses := 0, 0
		cabling := 0.0
		for x := 1.0; x <= 4.0; x += 1.0 {
			for y := 1.0; y <= 4.0; y += 1.0 {
				for yaw := 0.0; yaw < 360; yaw += 45 {
					poses++
					if deploymentCovers(opt.nAPs, opt.nRefl, apMounts, reflMounts, geom.V(x, y), yaw, req) {
						covered++
					}
				}
			}
		}
		// Cabling: HDMI runs from the PC to every AP (wall-routed).
		deploy := baseline.MultiAP{}
		for i := 0; i < opt.nAPs; i++ {
			m := apMounts[i]
			deploy.APs = append(deploy.APs, radio.NewAP(geom.V(m[0], m[1]), antenna.Default(m[2]), channel.DefaultBudget()))
		}
		cabling = deploy.CablingM(pcPos)
		res.Rows = append(res.Rows, DeploymentRow{
			Name:             opt.name,
			CoverageFrac:     float64(covered) / float64(poses),
			CablingM:         cabling,
			FullTransceivers: opt.nAPs + 1, // APs + the headset radio
		})
		res.Poses = poses
	}
	return res
}

// deploymentCovers reports whether some path sustains VR for the pose.
func deploymentCovers(nAPs, nRefl int, apMounts, reflMounts [][3]float64, pos geom.Vec, yaw float64, req phy.VRRequirement) bool {
	for a := 0; a < nAPs; a++ {
		w := NewWorld(1)
		m := apMounts[a]
		w.AP.Pos = geom.V(m[0], m[1])
		w.AP.Array.SetOrientation(m[2])
		hs := w.NewHeadsetAt(pos, yaw)
		mgr := linkmgr.New(w.Tracer, w.AP, hs)
		for rIdx := 0; rIdx < nRefl; rIdx++ {
			rm := reflMounts[rIdx]
			dev := reflector.Default(geom.V(rm[0], rm[1]), rm[2])
			mgr.AddAlignedReflector(dev)
		}
		if st := mgr.Best(); req.MetByRate(st.RateBps) {
			return true
		}
	}
	return false
}

// Render prints the deployment comparison.
func (r DeploymentResult) Render() string {
	var b strings.Builder
	b.WriteString("§1 — Deployment alternatives (coverage vs cost)\n\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.0f%%", 100*row.CoverageFrac),
			fmt.Sprintf("%.1f m", row.CablingM),
			fmt.Sprintf("%d", row.FullTransceivers),
		})
	}
	b.WriteString(Table([]string{"deployment", "VR coverage", "HDMI cabling", "full transceivers"}, rows))
	fmt.Fprintf(&b, "\n%d poses (4×4 grid × 8 orientations). Reflectors need no cabling and no\n", r.Poses)
	b.WriteString("baseband — the §1 argument for programmable mirrors over more transmitters.\n")
	return b.String()
}
