package linkmgr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/reflector"
)

// TestReflectorCeilingBoundsEvaluation checks snrCeiling against the
// evaluation it bounds over seeded twin worlds and pose walks: for every
// aligned reflector the ceiling is taken the way Best takes it — beams
// steered, gain control not yet run, the amplifier still at whatever word
// it last held — and the eager EvaluateReflector that follows, when it
// returns ok, must not exceed it plus the slack. Best must also skip a
// stated share of the reflectors it considers.
func TestReflectorCeilingBoundsEvaluation(t *testing.T) {
	bounded, skipped, candidates := 0, 0, 0
	worst := math.Inf(-1)
	for seed := int64(1); seed <= 40; seed++ {
		rm, m := twinWorld(rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed + 3000))
		pos := randomPoint(rng)
		for step := 0; step < 30; step++ {
			pos = geom.V(
				math.Max(0.5, math.Min(4.5, pos.X+0.3*rng.NormFloat64())),
				math.Max(0.5, math.Min(4.5, pos.Y+0.3*rng.NormFloat64())))
			m.Headset.MoveTo(pos)
			m.Headset.SetYaw(360 * rng.Float64())
			if rng.Intn(3) == 0 {
				rm.MoveObstacle(rng.Intn(2), randomPoint(rng))
			}
			for i, e := range m.Reflectors() {
				if !e.Aligned {
					continue
				}
				dev := e.Dev
				m.aim(PathReflector, i)
				dev.SetRXBeam(e.IncidenceDeg)
				dev.SetTXBeam(geom.DirectionDeg(dev.Pos(), m.Headset.Pos))
				inbound := m.driveLevel(i)
				c, certified := m.snrCeiling(dev, m.traceHops(i, inbound), dev.LeakageDB())
				if !certified {
					t.Fatalf("seed %d step %d reflector %d: ceiling not certified", seed, step, i)
				}
				snr, ok := m.EvaluateReflector(i)
				if !ok {
					continue
				}
				bounded++
				worst = math.Max(worst, snr-c)
				if !(snr <= c+ceilingSlackDB) {
					t.Fatalf("seed %d step %d reflector %d: SNR %v above its ceiling %v", seed, step, i, snr, c)
				}
			}
			m.Best()
			for _, e := range m.entries {
				if e.Aligned {
					candidates++
				}
				if e.pending {
					skipped++
				}
			}
		}
	}
	t.Logf("%d evaluations bounded (worst SNR − ceiling %.3g dB); Best skipped %d of %d reflectors", bounded, worst, skipped, candidates)
	if bounded < 1000 || 10*skipped < candidates {
		t.Fatalf("coverage: %d evaluations bounded, Best skipped %d of %d reflectors (want at least a tenth)", bounded, skipped, candidates)
	}
}

// TestSharedDeviceDeferral adds one device twice, under two different
// alignments, and holds Best to the never-skipping reference: when the
// second entry re-steers the device, a gain control the first entry
// deferred is superseded, exactly as the eager second evaluation
// overwrote the first one's word.
func TestSharedDeviceDeferral(t *testing.T) {
	superseded := 0
	for seed := int64(1); seed <= 40; seed++ {
		var twins [2]*Manager
		for k := range twins {
			_, m := twinWorld(rand.New(rand.NewSource(seed)))
			dev := reflector.Default(geom.V(4.6, 4.6), 225)
			for j := 0; j < 2; j++ {
				i := m.AddReflector(dev)
				if err := m.AlignFromGeometry(i); err != nil {
					t.Fatal(err)
				}
			}
			e := m.entries[len(m.entries)-1]
			if err := m.SetAlignment(len(m.entries)-1, e.APBeamDeg+3, e.IncidenceDeg-4); err != nil {
				t.Fatal(err)
			}
			twins[k] = m
		}
		a, b := twins[0], twins[1]
		first := a.entries[len(a.entries)-2]
		rng := rand.New(rand.NewSource(seed + 4000))
		pos := randomPoint(rng)
		for step := 0; step < 30; step++ {
			pos = geom.V(
				math.Max(0.5, math.Min(4.5, pos.X+0.3*rng.NormFloat64())),
				math.Max(0.5, math.Min(4.5, pos.Y+0.3*rng.NormFloat64())))
			yaw := 360 * rng.Float64()
			for _, m := range twins {
				m.Headset.MoveTo(pos)
				m.Headset.SetYaw(yaw)
			}
			// A skip records pendExt; one still recorded but no longer
			// pending after Best was superseded by the second entry.
			first.pendExt = math.NaN()
			stA, stB := a.Best(), bestReference(b, false)
			if !math.IsNaN(first.pendExt) && !first.pending {
				superseded++
			}
			if sa, sb := linkSnapshot(a, stA), linkSnapshot(b, stB); !slices.Equal(sa, sb) {
				t.Fatalf("seed %d step %d: Best %v, reference %v\n  snapshots %x\n        vs %x", seed, step, stA, stB, sa, sb)
			}
		}
	}
	if superseded < 10 {
		t.Fatalf("coverage: %d deferred gain controls superseded", superseded)
	}
}
