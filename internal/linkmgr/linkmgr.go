// Package linkmgr is the end-to-end MoVR link controller: it monitors the
// data-plane SNR at the headset, decides between the direct AP→headset
// path and paths through installed reflectors, keeps reflector beams
// pointed using the VR system's pose tracking ("the VR system constantly
// tracks the headset's position, we can simply leverage this information
// to determine the best angle", §4.1), and re-runs the adaptive gain
// control whenever beams move.
//
// The manager's tracking step is allocation-free and temporally
// coherent: every recurring ray trace goes through a channel.PathCache
// with a stable per-leg slot, so tick-over-tick queries revalidate
// against their own history (only blockage legs that moved geometry
// could have changed are recomputed) instead of re-tracing the room.
// Slot 0 is the AP→headset leg, traced in full because the direct SNR
// combines every path. Slots 1+2i and 2+2i are reflector i's
// AP→reflector and reflector→headset hops; the relay budget reads only
// the line-of-sight path of each hop, so those slots are direct-only
// (PathCache.DirectHInto) and never trace a wall bounce. Cache state
// never changes results, only speed: cached and fresh traces are
// bit-identical by the PathCache contract, and a direct-only trace
// returns exactly the direct path of a full one.
//
// Best skips the gain control of a reflector that provably cannot beat
// the best SNR found so far: an exact ceiling on its relay SNR (see
// snrCeiling) is already at or below it, so no gain word could make it
// win. The skipped reflector's beams are still steered, and its gain
// control runs later from the recorded inputs, only when a read through
// the Manager needs the gain word. A device added to a Manager is
// therefore steered and gain-programmed only through the Manager, and
// read through Reflectors.
package linkmgr

import (
	"fmt"
	"math"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/gainctl"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/relay"
	"github.com/movr-sim/movr/internal/units"
)

// PathChoice identifies which path currently carries the VR stream.
type PathChoice int

const (
	// PathNone means no usable path exists.
	PathNone PathChoice = iota
	// PathDirect is the AP→headset line-of-sight path.
	PathDirect
	// PathReflector is a path through a MoVR reflector.
	PathReflector
)

// String names the path choice.
func (c PathChoice) String() string {
	switch c {
	case PathNone:
		return "none"
	case PathDirect:
		return "direct"
	case PathReflector:
		return "reflector"
	default:
		return "unknown"
	}
}

// LinkState is the controller's view of the link after a decision.
type LinkState struct {
	// Choice is the selected path.
	Choice PathChoice

	// ReflectorIdx identifies the reflector when Choice is
	// PathReflector.
	ReflectorIdx int

	// SNRdB is the delivered SNR at the headset.
	SNRdB float64

	// RateBps is the 802.11ad rate at that SNR.
	RateBps float64

	// MCSIndex is the selected MCS (−1 when the link is down).
	MCSIndex int

	// MeetsRequirement reports whether the VR rate requirement is
	// satisfied.
	MeetsRequirement bool
}

// String summarizes the state.
func (s LinkState) String() string {
	return fmt.Sprintf("%s snr=%.1fdB rate=%.2fGbps meets=%v",
		s.Choice, s.SNRdB, s.RateBps/units.Gbps, s.MeetsRequirement)
}

// Entry is one installed reflector under management.
type Entry struct {
	// Dev is the physical device.
	Dev *reflector.Reflector

	// APBeamDeg is the AP's beam toward this reflector (from
	// alignment).
	APBeamDeg float64

	// IncidenceDeg is the reflector's receive-beam angle toward the AP
	// (from alignment — the angle Fig 8 estimates).
	IncidenceDeg float64

	// Aligned reports whether alignment has been performed.
	Aligned bool

	// Gain-control memo: the word Optimize chose, keyed on everything
	// it depends on — drive level and leakage (the config is always
	// gainctl.DefaultConfig).
	gainKeyOK         bool
	gainExt, gainLeak float64
	gainWord          int

	// Deferred gain control: the inputs of a gain-control run Best
	// skipped, which settle runs before anything reads the gain word.
	pending           bool
	pendExt, pendLeak float64

	// Drive-level memo: the last driveLevel result, keyed on every value
	// it is computed from.
	driveKeyOK bool
	driveKey   driveKey
	drive      float64
}

// driveKey holds every input of a reflector's drive level: leg 1's
// scalar fields, the AP budget's TX power and carrier, and the pointing
// state of the AP array and the reflector's RX array. Floats are kept
// as their bits, so equal keys mean bit-identical inputs. The reflector
// stands for its RX array, which it never replaces.
type driveKey struct {
	aod, aoa, length, refl, block uint64
	txPower, freq                 uint64
	apArr                         *antenna.Array
	apOrient, apSteer             uint64
	dev                           *reflector.Reflector
	rxOrient, rxSteer             uint64
}

// Manager owns path selection for one AP/headset pair. It traces through
// the tracer given to New for its whole life, and runs gain control
// under gainctl.DefaultConfig.
type Manager struct {
	AP      *radio.AP
	Headset *radio.Headset
	Req     phy.VRRequirement

	// Obs, when non-nil, receives link lifecycle events: handoff when
	// the carrying path changes, link_down when the link drops to no
	// usable path, link_up when it recovers, and reassess on every
	// passive SNR re-read. Recording is observation only — it never
	// influences path selection.
	Obs *obs.Recorder

	entries []*Entry

	// Last-applied decision, for passive reassessment.
	lastChoice PathChoice
	lastRefl   int

	// Last-emitted path code, tracked separately from the control state
	// above so trace events describe what the trace reader cares about
	// (the carrying path changing) rather than internal decision churn.
	emitSeen bool
	emitCode int32

	// pathBuf is the tracer scratch reused by every SNR evaluation, so a
	// steady-state tracking step performs zero heap allocations. Paths
	// (and their Points) returned through directLeg alias this buffer
	// and are only valid until the next trace.
	pathBuf []channel.Path

	// opt reuses gain-sweep probe scratch across every reflector
	// evaluation this manager performs.
	opt gainctl.Optimizer

	// cache memoizes traced paths per leg with temporal coherence: the
	// AP→headset slot holds the full path set, each reflector hop's slot
	// holds only its direct path. When only obstacles moved since the
	// last evaluation of a leg, the cached paths are revalidated
	// (blockage recomputed for the moved obstacles only) instead of
	// re-traced, and when nothing moved they are emitted as-is.
	// Emissions are bit-identical to a fresh trace.
	cache *channel.PathCache
}

// Leg slot scheme for the path cache: the AP→headset leg uses slot 0
// (full trace), and each reflector entry i owns the direct-only slots
// 1+2i (AP→reflector) and 2+2i (reflector→headset), so every recurring
// leg revalidates against its own history.
const slotDirect = 0

func slotLeg1(i int) int { return 1 + 2*i }
func slotLeg2(i int) int { return 2 + 2*i }

// directSNR traces the AP→headset leg through the path cache and
// combines it exactly as radio.LinkSNRdBBuf does.
func (m *Manager) directSNR() float64 {
	m.pathBuf = m.cache.TraceHInto(slotDirect, m.pathBuf[:0],
		m.AP.Pos, m.Headset.Pos, m.AP.HeightM, m.Headset.HeightM)
	return m.AP.Budget.CombinedSNRdB(m.pathBuf, m.AP.Array, m.Headset.Array)
}

// New builds a Manager over tr with the HTC Vive requirement and default
// gain control. Its path cache wraps tr, which fixes the room, carrier
// and reflection order for the Manager's life.
func New(tr *channel.Tracer, ap *radio.AP, hs *radio.Headset) *Manager {
	return &Manager{
		AP:      ap,
		Headset: hs,
		Req:     phy.HTCViveRequirement(),
		cache:   channel.NewPathCache(tr),
	}
}

// AddReflector registers a reflector and returns its index. From then on
// the device is steered and gain-programmed only through the Manager:
// Best may leave a reflector that cannot win with its beams steered and
// its gain control pending, which the Manager runs before any read
// through it. Programming the device some other way, through its
// control link or a pointer kept from here, bypasses that run.
func (m *Manager) AddReflector(dev *reflector.Reflector) int {
	m.entries = append(m.entries, &Entry{Dev: dev})
	return len(m.entries) - 1
}

// Reflectors returns the managed entries (shared slice; do not modify).
// It first runs any gain control Best deferred, so every device holds
// exactly the beams and gain word an eager evaluation would have left.
// Read devices through it: a pointer kept from an earlier call sees the
// beams but may see a stale gain word.
func (m *Manager) Reflectors() []*Entry {
	for _, e := range m.entries {
		m.settle(e)
	}
	return m.entries
}

// SetAlignment records the alignment result for reflector i (normally
// produced by the align package's sweep).
func (m *Manager) SetAlignment(i int, apBeamDeg, incidenceDeg float64) error {
	if i < 0 || i >= len(m.entries) {
		return fmt.Errorf("linkmgr: reflector index %d out of range", i)
	}
	e := m.entries[i]
	e.APBeamDeg = apBeamDeg
	e.IncidenceDeg = incidenceDeg
	e.Aligned = true
	return nil
}

// AlignFromGeometry fills the alignment of reflector i from known
// positions — the installation-time shortcut for simulations and the
// upper bound a perfect sweep would reach.
func (m *Manager) AlignFromGeometry(i int) error {
	if i < 0 || i >= len(m.entries) {
		return fmt.Errorf("linkmgr: reflector index %d out of range", i)
	}
	e := m.entries[i]
	return m.SetAlignment(i,
		geom.DirectionDeg(m.AP.Pos, e.Dev.Pos()),
		geom.DirectionDeg(e.Dev.Pos(), m.AP.Pos))
}

// AddAlignedReflector is AddReflector followed by AlignFromGeometry: it
// registers dev, aligns it from known positions, and returns its index.
func (m *Manager) AddAlignedReflector(dev *reflector.Reflector) int {
	i := m.AddReflector(dev)
	_ = m.AlignFromGeometry(i) // its only error is an index out of range
	return i
}

// EvaluateDirect steers AP and headset at each other and returns the
// direct-path SNR.
func (m *Manager) EvaluateDirect() float64 {
	m.aim(PathDirect, -1)
	return m.directSNR()
}

// EvaluateReflector configures the path through reflector i — AP beam
// from alignment, reflector RX beam from alignment, reflector TX beam and
// headset beam from pose tracking — runs gain control, and returns the
// delivered amplify-and-forward SNR. The second return is false when the
// path is unusable (unaligned, unstable, or saturated).
func (m *Manager) EvaluateReflector(i int) (float64, bool) {
	return m.evaluateReflector(i, math.Inf(-1))
}

// evaluateReflector is EvaluateReflector for a candidate that must beat
// floor. When snrCeiling certifies that it cannot, the gain control and
// the second-hop gains are skipped, the gain-control inputs are recorded
// for settle, and the path is reported unusable. A floor outside
// ±ceilingRangeDB, such as EvaluateReflector's −Inf, never skips.
func (m *Manager) evaluateReflector(i int, floor float64) (float64, bool) {
	if i < 0 || i >= len(m.entries) {
		return math.Inf(-1), false
	}
	e := m.entries[i]
	if !e.Aligned {
		return math.Inf(-1), false
	}
	dev := e.Dev

	// Beam configuration. A new steering of the device supersedes any
	// gain control still pending on it.
	m.aim(PathReflector, i)
	dev.SetRXBeam(e.IncidenceDeg)
	dev.SetTXBeam(geom.DirectionDeg(dev.Pos(), m.Headset.Pos))
	for _, o := range m.entries {
		if o.Dev == dev {
			o.pending = false
		}
	}

	// First hop: AP → reflector amplifier input, over the direct leg
	// with whatever blockage it suffers; the second-hop leg and the
	// noise floors do not depend on the gain.
	inbound := m.driveLevel(i)
	leak := dev.LeakageDB()
	h := m.traceHops(i, inbound)
	if inCeilingRange(floor) {
		if c, ok := m.snrCeiling(dev, h, leak); ok && c+ceilingSlackDB <= floor {
			e.pending, e.pendExt, e.pendLeak = true, inbound, leak
			return math.Inf(-1), false
		}
	}

	// Adaptive gain control at the current beams and drive level.
	m.gainControl(e, inbound, leak)
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1), false
	}
	return m.relaySNR(dev, h), true
}

// gainControl programs entry e's amplifier for drive level ext and
// leakage leak: the memoized word when both match the last run, a fresh
// Optimize otherwise. The word Optimize picks is a pure function of the
// two, so a memo hit sets exactly what it would.
func (m *Manager) gainControl(e *Entry, ext, leak float64) {
	if e.gainKeyOK && e.gainExt == ext && e.gainLeak == leak {
		e.Dev.Amp().SetGainWord(e.gainWord)
		return
	}
	m.opt.Optimize(e.Dev, ext, gainctl.DefaultConfig())
	e.gainKeyOK, e.gainExt, e.gainLeak, e.gainWord = true, ext, leak, e.Dev.Amp().GainWord()
}

// settle runs entry e's deferred gain control, if any, from the inputs
// Best recorded. Nothing has steered the device since (a new steering
// clears the record), so its leakage is still the recorded one and the
// run sets the word the eager evaluation would have.
func (m *Manager) settle(e *Entry) {
	if e.pending {
		e.pending = false
		m.gainControl(e, e.pendExt, e.pendLeak)
	}
}

// EvaluateReflectorFrozen computes the SNR through reflector i with its
// beams and amplifier gain exactly as they are — no re-steering and no
// gain re-optimization beyond running any gain control Best deferred.
// This models a system without pose-driven tracking: the reflector keeps
// whatever configuration its last alignment produced, however stale.
// The AP and headset still aim at their configured endpoints (the AP at
// the reflector, the headset at the reflector's position).
func (m *Manager) EvaluateReflectorFrozen(i int) (float64, bool) {
	if i < 0 || i >= len(m.entries) {
		return math.Inf(-1), false
	}
	e := m.entries[i]
	m.settle(e)
	if !e.Aligned {
		return math.Inf(-1), false
	}
	dev := e.Dev
	m.aim(PathReflector, i)

	inbound := m.driveLevel(i)
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1), false
	}
	return m.relaySNR(dev, m.traceHops(i, inbound)), true
}

// BestFrozen is Best without pose-driven reflector tracking: the direct
// path re-aims (electronic, local), but reflector beams and gains stay
// frozen at their last-applied values. Like Best, it re-aims the AP and
// headset at the winner and keeps the SNR its evaluation returned.
func (m *Manager) BestFrozen() LinkState {
	bestSNR := m.EvaluateDirect()
	choice := PathDirect
	reflIdx := -1
	for i := range m.entries {
		if snr, ok := m.EvaluateReflectorFrozen(i); ok && snr > bestSNR {
			bestSNR = snr
			choice = PathReflector
			reflIdx = i
		}
	}
	m.aim(choice, reflIdx)
	return m.stateFor(choice, reflIdx, bestSNR)
}

// driveLevel returns reflector i's drive level: the power its amplifier
// input receives from the AP over leg 1, at the AP's and the reflector's
// current beams. Leg 1 is traced every time; the two array gains and the
// propagation loss are recomputed only when an input of driveKey changed.
// The value is a pure function of the key, so a memo hit returns exactly
// what the computation would.
func (m *Manager) driveLevel(i int) float64 {
	e := m.entries[i]
	dev := e.Dev
	leg1 := m.directLeg(slotLeg1(i), m.AP.Pos, dev.Pos(), m.AP.HeightM, dev.HeightM())
	b := math.Float64bits
	apOrient, apSteer := m.AP.Array.Pointing()
	rxOrient, rxSteer := dev.RXPointing()
	k := driveKey{
		aod: b(leg1.AoDDeg), aoa: b(leg1.AoADeg), length: b(leg1.LengthM),
		refl: b(leg1.ReflLossDB), block: b(leg1.BlockLossDB),
		txPower: b(m.AP.Budget.TXPowerDBm), freq: b(m.AP.Budget.FreqHz),
		apArr: m.AP.Array, apOrient: b(apOrient), apSteer: b(apSteer),
		dev: dev, rxOrient: b(rxOrient), rxSteer: b(rxSteer),
	}
	if e.driveKeyOK && e.driveKey == k {
		return e.drive
	}
	v := m.AP.Budget.TXPowerDBm + m.AP.GainDBi(leg1.AoDDeg) -
		leg1.PropagationLossDB(m.AP.Budget.FreqHz) + dev.RXGainDBi(leg1.AoADeg)
	e.driveKeyOK, e.driveKey, e.drive = true, k, v
	return v
}

// relayHops is what a relay evaluation reads besides the reflector's
// gain and beam pattern: the first hop at the amplifier input, the
// second-hop leg, and the headset's noise floor.
type relayHops struct {
	hop1    relay.HopBudget
	leg2    channel.Path
	noiseHS float64
}

// traceHops traces reflector i's second hop and collects the relay
// inputs at drive level inbound.
func (m *Manager) traceHops(i int, inbound float64) relayHops {
	dev := m.entries[i].Dev
	return relayHops{
		hop1: relay.HopBudget{
			SignalDBm: inbound,
			NoiseDBm:  units.ThermalNoiseDBm(m.AP.Budget.BandwidthHz, dev.NoiseFigureDB()),
		},
		leg2:    m.directLeg(slotLeg2(i), dev.Pos(), m.Headset.Pos, dev.HeightM(), m.Headset.HeightM),
		noiseHS: m.Headset.Budget.NoiseFloorDBm(),
	}
}

// hop2GainDB is the second-hop gain from the amplifier input to the
// headset receiver over leg2, given the amplifier gain and the
// reflector TX and headset array gains.
func (m *Manager) hop2GainDB(leg2 channel.Path, ampDB, txDBi, hsDBi float64) float64 {
	return ampDB + txDBi - leg2.PropagationLossDB(m.AP.Budget.FreqHz) + hsDBi - m.AP.Budget.ImplLossDB
}

// relaySNR finishes a relay evaluation: the end-to-end
// amplify-and-forward SNR at the headset over h, at dev's current beams
// and gain.
func (m *Manager) relaySNR(dev *reflector.Reflector, h relayHops) float64 {
	g := m.hop2GainDB(h.leg2, dev.Amp().GainDB(), dev.TXGainDBi(h.leg2.AoDDeg), m.Headset.GainDBi(h.leg2.AoADeg))
	return relay.EndToEnd(h.hop1, g, h.noiseHS)
}

// Ceiling certification bounds, see snrCeiling.
const (
	// ceilingSlackDB is the margin by which the ceiling must clear the
	// SNR to beat.
	ceilingSlackDB = 1e-6
	// ceilingRangeDB bounds every input of a certified ceiling.
	ceilingRangeDB = 1e3
	// ceilingMaxElements bounds the element count of both arrays.
	ceilingMaxElements = 1 << 20
)

// inCeilingRange reports whether x lies within ±ceilingRangeDB (NaN
// does not).
func inCeilingRange(x float64) bool { return -ceilingRangeDB <= x && x <= ceilingRangeDB }

// snrCeiling returns an upper bound on the SNR reflector dev can
// deliver over h with its beams where they stand (leakage leak),
// whatever word gain control then sets, and whether the bound is
// certified. It is relaySNR with each gain replaced by its ceiling,
//
//	min(TopGainDB, leak) + TX peak − leg-2 loss + headset peak − ImplLossDB,
//
// fed to the same relay.EndToEnd. Each step holds in float64:
//
//   - An evaluation that returns ok has a Stable device: GainDB − leak
//     < 0. A rounded difference of two floats is zero only when they are
//     equal and otherwise has the sign of the exact one, so GainDB <
//     leak. GainDB rises with the word (StepDB > 0, and float × and +
//     are monotone), so GainDB ≤ TopGainDB. Hence GainDB is at most
//     their minimum.
//   - GainDBi is the peak plus the array-factor term plus an element
//     term ≤ 0, or the peak minus a positive backlobe or null floor. The
//     array-factor term is positive only through rounding of the
//     computed |AF| above 1, of order n·2⁻⁵² relative for n elements:
//     under 2e-9 dB per array for n ≤ ceilingMaxElements. Larger arrays
//     are not certified.
//   - Float + and − are monotone in each operand, so the real hop-2 gain
//     exceeds the bound's by at most those two excesses.
//   - EndToEnd is signal minus total noise, which rises with the hop-2
//     gain g at a slope in (0, 1). With the drive level, the hop-1 noise,
//     the hop-2 bound and the headset noise all within ±ceilingRangeDB,
//     no Pow in AddPowersDBm overflows or underflows, and its rounding
//     stays below 1e-9 dB for any g up to the bound (FuzzRelayCeiling
//     checks this). Inputs outside that range, or non-finite, are not
//     certified.
//
// The real SNR is therefore below the ceiling plus 1e-8 dB. Best skips a
// reflector only when the ceiling plus ceilingSlackDB is at or below an
// SNR it already has, and keeps a candidate only on a strictly higher
// SNR, so a skipped reflector could never have been chosen.
func (m *Manager) snrCeiling(dev *reflector.Reflector, h relayHops, leak float64) (float64, bool) {
	txPeak, txN := dev.TXPeak()
	if txN > ceilingMaxElements || m.Headset.Array.Config().Elements > ceilingMaxElements {
		return 0, false
	}
	g := m.hop2GainDB(h.leg2, min(dev.Amp().TopGainDB(), leak), txPeak, m.Headset.Array.PeakGainDBi())
	if !(inCeilingRange(h.hop1.SignalDBm) && inCeilingRange(h.hop1.NoiseDBm) &&
		inCeilingRange(g) && inCeilingRange(h.noiseHS)) {
		return 0, false
	}
	return relay.EndToEnd(h.hop1, g, h.noiseHS), true
}

// directLeg returns the direct path between two points at the given
// mounting heights, traced direct-only through the path cache under the
// given leg slot. The returned Path's Points alias the manager's scratch
// buffer and are overwritten by the next trace; callers use only the
// scalar fields (angles, length, losses), which are value copies.
func (m *Manager) directLeg(slot int, a, b geom.Vec, hA, hB float64) channel.Path {
	m.pathBuf = m.cache.DirectHInto(slot, m.pathBuf[:0], a, b, hA, hB)
	return m.pathBuf[0]
}

// Best evaluates every available path, selects the highest-SNR one,
// re-aims the AP and headset at it, and returns the resulting state.
//
// A reflector whose SNR ceiling (snrCeiling) is certified and at least
// ceilingSlackDB below the best SNR found so far cannot win: Best steers
// its beams but skips its gain control and second-hop gains, recording
// the drive level and leakage that gain control would have run with. Reflectors, EvaluateReflectorFrozen (and so BestFrozen) and
// Reassess run the deferred gain control from those inputs before they
// read the device, so every read through the Manager sees exactly the
// gain word the eager evaluation would have set. Reassess reads only the
// last winner, which is never skipped, so a tracking session never runs
// a deferred gain control at all.
func (m *Manager) Best() LinkState {
	bestSNR := m.EvaluateDirect()
	choice := PathDirect
	reflIdx := -1
	for i := range m.entries {
		if snr, ok := m.evaluateReflector(i, bestSNR); ok && snr > bestSNR {
			bestSNR = snr
			choice = PathReflector
			reflIdx = i
		}
	}
	// Re-aim at the winner instead of re-evaluating it. Later candidates
	// moved only the AP and headset beams and their own reflector, so the
	// winner's reflector still holds the beams and gain word its
	// evaluation set, and bestSNR — a pure function of that state, every
	// cache under it bit-identical to a fresh computation — is its SNR.
	m.aim(choice, reflIdx)
	return m.stateFor(choice, reflIdx, bestSNR)
}

// aim steers the AP and headset for a path: at each other for the direct
// path, or along reflector i's aligned AP beam and toward its position.
// It touches no reflector.
func (m *Manager) aim(choice PathChoice, i int) {
	switch choice {
	case PathDirect:
		m.AP.SteerToward(m.Headset.Pos)
		m.Headset.SteerToward(m.AP.Pos)
	case PathReflector:
		e := m.entries[i]
		m.AP.SteerTo(e.APBeamDeg)
		m.Headset.SteerToward(e.Dev.Pos())
	}
}

// stateFor converts a path and SNR into a full LinkState and records the
// decision for later passive reassessment.
func (m *Manager) stateFor(choice PathChoice, reflIdx int, snr float64) LinkState {
	m.lastChoice = choice
	m.lastRefl = reflIdx
	st := LinkState{Choice: choice, ReflectorIdx: reflIdx, SNRdB: snr, MCSIndex: -1}
	if mcs, ok := phy.Best(snr); ok {
		st.RateBps = mcs.RateBps
		st.MCSIndex = mcs.Index
	} else {
		st.Choice = PathNone
	}
	st.MeetsRequirement = m.Req.MetByRate(st.RateBps)
	m.emitTransition(st)
	return st
}

// PathCode flattens a path choice into the compact integer code trace
// events carry: −1 for no usable path, 0 for the direct path, 1+i for
// reflector i.
func PathCode(choice PathChoice, reflIdx int) int32 {
	switch choice {
	case PathDirect:
		return 0
	case PathReflector:
		return int32(1 + reflIdx)
	default:
		return -1
	}
}

// emitTransition records link_up / link_down / handoff events when the
// carrying path changes. Before the first decision the link is treated
// as down, so the first usable state emits link_up.
func (m *Manager) emitTransition(st LinkState) {
	if m.Obs == nil {
		return
	}
	code := PathCode(st.Choice, st.ReflectorIdx)
	if !m.emitSeen {
		m.emitSeen = true
		m.emitCode = code
		if code >= 0 {
			m.Obs.Emit(obs.KindLinkUp, code, 0, st.SNRdB, 0)
		}
		return
	}
	prev := m.emitCode
	if code == prev {
		return
	}
	m.emitCode = code
	switch {
	case code < 0:
		m.Obs.Emit(obs.KindLinkDown, prev, 0, st.SNRdB, 0)
	case prev < 0:
		m.Obs.Emit(obs.KindLinkUp, code, 0, st.SNRdB, 0)
	default:
		m.Obs.Emit(obs.KindHandoff, prev, code, st.SNRdB, 0)
	}
}

// Reassess re-reads the SNR of the most recently selected path with
// every beam and gain exactly as it stands — no steering, no gain
// control, no path switching. This is what the headset's receiver
// actually measures between controller actions: the geometry may have
// moved (pose, blockers) while the configuration has not.
func (m *Manager) Reassess() LinkState {
	choice, idx := m.lastChoice, m.lastRefl
	var snr float64
	if choice == PathReflector && idx >= 0 && idx < len(m.entries) {
		snr = m.reflectorSNRAsIs(idx)
	} else {
		choice = PathDirect
		snr = m.directSNR()
	}
	st := m.stateFor(choice, idx, snr)
	// Reassessment must not upgrade PathNone back: keep the decision.
	m.lastChoice, m.lastRefl = choice, idx
	m.Obs.Emit(obs.KindReassess, PathCode(st.Choice, st.ReflectorIdx), 0, st.SNRdB, st.RateBps)
	return st
}

// reflectorSNRAsIs computes the amplify-and-forward SNR through entry i
// without touching any beam, after running any gain control Best
// deferred on it.
func (m *Manager) reflectorSNRAsIs(i int) float64 {
	e := m.entries[i]
	m.settle(e)
	dev := e.Dev
	inbound := m.driveLevel(i)
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1)
	}
	return m.relaySNR(dev, m.traceHops(i, inbound))
}

// Step updates the headset pose from the VR tracking system and returns
// the re-evaluated link state — the fast pose-driven tracking loop the
// paper's §6 proposes, with no sweep in the loop.
func (m *Manager) Step(pos geom.Vec, yawDeg float64) LinkState {
	m.Headset.MoveTo(pos)
	m.Headset.SetYaw(yawDeg)
	return m.Best()
}
