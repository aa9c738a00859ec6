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
package linkmgr

import (
	"fmt"
	"math"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/control"
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

	// Link is the Bluetooth control channel to it.
	Link *control.Link

	// APBeamDeg is the AP's beam toward this reflector (from
	// alignment).
	APBeamDeg float64

	// IncidenceDeg is the reflector's receive-beam angle toward the AP
	// (from alignment — the angle Fig 8 estimates).
	IncidenceDeg float64

	// Aligned reports whether alignment has been performed.
	Aligned bool

	// Gain-control memo: the word Optimize chose, keyed on everything
	// it depends on — drive level, leakage, and the manager's GainCfg.
	gainKeyOK         bool
	gainExt, gainLeak float64
	gainCfg           gainctl.Config
	gainWord          int

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

// Manager owns path selection for one AP/headset pair.
type Manager struct {
	Tracer  *channel.Tracer
	AP      *radio.AP
	Headset *radio.Headset
	Req     phy.VRRequirement
	GainCfg gainctl.Config

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
	// Emissions are bit-identical to a fresh trace. Rebuilt lazily if
	// Tracer is swapped.
	cache *channel.PathCache
}

// Leg slot scheme for the path cache: the AP→headset leg uses slot 0
// (full trace), and each reflector entry i owns the direct-only slots
// 1+2i (AP→reflector) and 2+2i (reflector→headset), so every recurring
// leg revalidates against its own history.
const slotDirect = 0

func slotLeg1(i int) int { return 1 + 2*i }
func slotLeg2(i int) int { return 2 + 2*i }

// pc returns the manager's path cache, (re)building it if the Tracer
// was set or swapped after construction.
func (m *Manager) pc() *channel.PathCache {
	if m.cache == nil || m.cache.Tracer() != m.Tracer {
		m.cache = channel.NewPathCache(m.Tracer)
	}
	return m.cache
}

// directSNR traces the AP→headset leg through the path cache and
// combines it exactly as radio.LinkSNRdBBuf does.
func (m *Manager) directSNR() float64 {
	m.pathBuf = m.pc().TraceHInto(slotDirect, m.pathBuf[:0],
		m.AP.Pos, m.Headset.Pos, m.AP.HeightM, m.Headset.HeightM)
	return m.AP.Budget.CombinedSNRdB(m.pathBuf, m.AP.Array, m.Headset.Array)
}

// New builds a Manager with the HTC Vive requirement and default gain
// control.
func New(tr *channel.Tracer, ap *radio.AP, hs *radio.Headset) *Manager {
	return &Manager{
		Tracer:  tr,
		AP:      ap,
		Headset: hs,
		Req:     phy.HTCViveRequirement(),
		GainCfg: gainctl.DefaultConfig(),
	}
}

// AddReflector registers a reflector and returns its index.
func (m *Manager) AddReflector(dev *reflector.Reflector, link *control.Link) int {
	m.entries = append(m.entries, &Entry{Dev: dev, Link: link})
	return len(m.entries) - 1
}

// Reflectors returns the managed entries (shared slice; do not modify).
func (m *Manager) Reflectors() []*Entry { return m.entries }

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
	if i < 0 || i >= len(m.entries) {
		return math.Inf(-1), false
	}
	e := m.entries[i]
	if !e.Aligned || !e.Dev.Amp().Enabled() {
		return math.Inf(-1), false
	}
	dev := e.Dev

	// Beam configuration.
	m.aim(PathReflector, i)
	dev.SetRXBeam(e.IncidenceDeg)
	dev.SetTXBeam(geom.DirectionDeg(dev.Pos(), m.Headset.Pos))

	// First hop: AP → reflector amplifier input, over the direct leg
	// with whatever blockage it suffers.
	inbound := m.driveLevel(i)

	// Adaptive gain control at the current beams and drive level.
	if leak := dev.LeakageDB(); e.gainKeyOK && e.gainExt == inbound && e.gainLeak == leak && e.gainCfg == m.GainCfg {
		dev.Amp().SetGainWord(e.gainWord)
	} else {
		m.opt.Optimize(dev, inbound, m.GainCfg)
		e.gainKeyOK, e.gainExt, e.gainLeak, e.gainCfg, e.gainWord = true, inbound, leak, m.GainCfg, dev.Amp().GainWord()
	}
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1), false
	}

	return m.relaySNR(i, inbound), true
}

// EvaluateReflectorFrozen computes the SNR through reflector i with its
// beams and amplifier gain exactly as they are — no re-steering and no
// gain re-optimization. This models a system without pose-driven
// tracking: the reflector keeps whatever configuration its last
// alignment produced, however stale. The AP and headset still aim at
// their configured endpoints (the AP at the reflector, the headset at
// the reflector's position).
func (m *Manager) EvaluateReflectorFrozen(i int) (float64, bool) {
	if i < 0 || i >= len(m.entries) {
		return math.Inf(-1), false
	}
	e := m.entries[i]
	if !e.Aligned || !e.Dev.Amp().Enabled() {
		return math.Inf(-1), false
	}
	dev := e.Dev
	m.aim(PathReflector, i)

	inbound := m.driveLevel(i)
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1), false
	}
	return m.relaySNR(i, inbound), true
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

// PrimeReflector applies the tracked configuration for reflector i once
// (beams + gain control at the current pose); used to set up the frozen
// variant before a session starts.
func (m *Manager) PrimeReflector(i int) {
	m.EvaluateReflector(i)
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

// relaySNR finishes a relay evaluation at drive level inbound: it
// traces reflector i's second hop at the current beams and gain and
// returns the end-to-end amplify-and-forward SNR at the headset.
func (m *Manager) relaySNR(i int, inbound float64) float64 {
	dev := m.entries[i].Dev
	leg2 := m.directLeg(slotLeg2(i), dev.Pos(), m.Headset.Pos, dev.HeightM(), m.Headset.HeightM)
	hop2Gain := dev.Amp().GainDB() + dev.TXGainDBi(leg2.AoDDeg) -
		leg2.PropagationLossDB(m.AP.Budget.FreqHz) +
		m.Headset.GainDBi(leg2.AoADeg) - m.AP.Budget.ImplLossDB
	hop1 := relay.HopBudget{
		SignalDBm: inbound,
		NoiseDBm:  units.ThermalNoiseDBm(m.AP.Budget.BandwidthHz, dev.NoiseFigureDB()),
	}
	return relay.EndToEnd(hop1, hop2Gain, m.Headset.Budget.NoiseFloorDBm())
}

// directLeg returns the direct path between two points at the given
// mounting heights, traced direct-only through the path cache under the
// given leg slot. The returned Path's Points alias the manager's scratch
// buffer and are overwritten by the next trace; callers use only the
// scalar fields (angles, length, losses), which are value copies.
func (m *Manager) directLeg(slot int, a, b geom.Vec, hA, hB float64) channel.Path {
	m.pathBuf = m.pc().DirectHInto(slot, m.pathBuf[:0], a, b, hA, hB)
	return m.pathBuf[0]
}

// Best evaluates every available path, selects the highest-SNR one,
// re-aims the AP and headset at it, and returns the resulting state.
func (m *Manager) Best() LinkState {
	bestSNR := m.EvaluateDirect()
	choice := PathDirect
	reflIdx := -1
	for i := range m.entries {
		if snr, ok := m.EvaluateReflector(i); ok && snr > bestSNR {
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
// without touching any beam or gain.
func (m *Manager) reflectorSNRAsIs(i int) float64 {
	e := m.entries[i]
	dev := e.Dev
	if !dev.Amp().Enabled() {
		return math.Inf(-1)
	}
	inbound := m.driveLevel(i)
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1)
	}
	return m.relaySNR(i, inbound)
}

// Step updates the headset pose from the VR tracking system and returns
// the re-evaluated link state — the fast pose-driven tracking loop the
// paper's §6 proposes, with no sweep in the loop.
func (m *Manager) Step(pos geom.Vec, yawDeg float64) LinkState {
	m.Headset.MoveTo(pos)
	m.Headset.SetYaw(yawDeg)
	return m.Best()
}
