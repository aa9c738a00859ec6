package coex

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/movr-sim/movr/internal/vr"
)

// PolicyName names a pluggable airtime policy. It is the shared
// vocabulary of the movrsim -coex-policy flag and the movrd job API's
// coex_policy field, so the two front-ends cannot drift apart.
type PolicyName string

// The recognised airtime policies.
const (
	// PolicyRR is the historical round-robin policy: active players
	// split every window evenly (weights permitting), slot order
	// rotating window to window.
	PolicyRR PolicyName = "rr"

	// PolicyPF is proportional-fair airtime: shares are weighted by
	// each player's recent geometric link quality, tracked per window
	// over a short lookback — players the tracking data says can use
	// the air well get more of it.
	PolicyPF PolicyName = "pf"

	// PolicyEDF is deadline-aware airtime: slot sizing is quantized to
	// the display's frame-deadline grid and biased toward the players
	// closest to missing their next frame deadline — the scheduler
	// refuses to slice airtime below the deadline scale, because a slot
	// too short to carry a whole frame before its deadline is wasted
	// air.
	PolicyEDF PolicyName = "edf"
)

// Policies lists the recognised airtime policies in menu order.
func Policies() []PolicyName { return []PolicyName{PolicyRR, PolicyPF, PolicyEDF} }

// PolicyNames renders the menu for usage strings: "rr|pf|edf".
func PolicyNames() string {
	names := make([]string, 0, 3)
	for _, p := range Policies() {
		names = append(names, string(p))
	}
	return strings.Join(names, "|")
}

// ParsePolicy validates a policy name. The empty string is the default
// round-robin policy.
func ParsePolicy(s string) (PolicyName, error) {
	if s == "" {
		return PolicyRR, nil
	}
	for _, p := range Policies() {
		if s == string(p) {
			return p, nil
		}
	}
	return "", fmt.Errorf("unknown airtime policy %q (%s)", s, PolicyNames())
}

// window is the per-window context an airtimePolicy sizes sub-slots
// from. Every field and method is a pure function of Index and the
// room's motion traces, so the room's schedule table does not depend on
// the order windows are laid out in. The slices are layout-owned
// scratch, valid only for the duration of the Shares call.
type window struct {
	// Index is the scheduling window number (its start / the room
	// period).
	Index int64

	// DownStart is where the downlink span begins in virtual time — the
	// end of the window's pose-uplink reservation (the window start when
	// the reservation is off). Deadline-aware policies need the absolute
	// position to find the display's frame-deadline grid.
	DownStart time.Duration

	// Downlink is the airtime the policy divides: the window span minus
	// the pose-uplink reservation.
	Downlink time.Duration

	// Active flags the players whose direct path from the AP is clear
	// of other bodies (all true when everyone is blocked — the
	// idle-reclaim fallback). A policy gives inactive players no share.
	Active []bool

	// NActive counts the true entries of Active.
	NActive int

	// Weights are the room's per-player airtime weights; nil means
	// equal. Use Weight to read them.
	Weights []float64

	lay *layout
}

// Weight returns player i's airtime weight (1 when the room carries no
// explicit weights).
func (w *window) Weight(i int) float64 {
	if w.Weights == nil {
		return 1
	}
	return w.Weights[i]
}

// qualityLookback is how many windows of geometric link quality the
// proportional-fair policy averages over — 8 windows of the 50 ms
// cadence, i.e. the last ~400 ms of motion.
const qualityLookback = 8

// blockedQuality discounts the quality of a body-blocked player: the
// direct path is shadowed, so airtime spent on it mostly misses.
const blockedQuality = 0.05

// frameInterval is the display deadline grid the deadline-aware policy
// quantizes slot sizes to: the HTC Vive frame interval (≈11.1 ms at
// 90 Hz).
var frameInterval = vr.HTCVive().FrameInterval()

// airtimePolicy sizes the per-player sub-slots of every scheduling
// window. Implementations must be deterministic pure functions of the
// window (any state must be reconstructible from Index alone): the same
// window must always produce the same shares, whatever order windows are
// visited in, or concurrently simulated sessions of one room would
// derive conflicting schedules.
type airtimePolicy interface {
	// Shares fills shares[i] with player i's relative share of the
	// window's downlink airtime (shares is zeroed, one entry per player).
	// layoutWindow normalizes, so only ratios matter, and lays the
	// shares out as they come: every share must be finite and
	// non-negative, an inactive player's 0, and some active player's
	// positive. TestPolicySharesAreWellFormed holds rr, pf and edf to
	// that.
	Shares(w *window, shares []float64)
}

// MaxAdmissible reports how many of n requested players the named
// airtime policy can serve in one bay without starving anyone — the
// policy-driven capacity the venue admission path asks before letting
// players onto a bay's medium. A zero period resolves to the default
// BuildGeometry applies. Every policy requires the per-player
// pose-uplink reservation to leave downlink airtime, so the answer is 0
// when one player's uplink alone fills the window; the deadline-aware
// policy additionally refuses players beyond the number of whole
// display-frame intervals a window's downlink span carries, because a
// player entitled to less than one whole frame per window on average
// can never meet a deadline — admitting it starves everyone's deadline
// budget instead of degrading gracefully.
func MaxAdmissible(p PolicyName, n int, period, uplink time.Duration) int {
	if period <= 0 {
		period = DefaultPeriod
	}
	if uplink < 0 {
		uplink = 0
	}
	name, err := ParsePolicy(string(p))
	if err != nil {
		name = PolicyRR
	}
	for k := n; k > 1; k-- {
		down := period - uplink*time.Duration(k)
		if down <= 0 {
			continue
		}
		if name == PolicyEDF && int64(down/frameInterval) < int64(k) {
			continue
		}
		return k
	}
	if period-uplink <= 0 {
		return 0 // one player's uplink alone fills the window
	}
	return 1
}

// newPolicy instantiates the named policy with scratch sized for n
// players. Policies are per-scheduler: their scratch must not be shared
// between sessions.
func newPolicy(name PolicyName, n int) (airtimePolicy, error) {
	p, err := ParsePolicy(string(name))
	if err != nil {
		return nil, err
	}
	switch p {
	case PolicyRR:
		return rrPolicy{}, nil
	case PolicyPF:
		return &pfPolicy{q: make([]float64, n)}, nil
	case PolicyEDF:
		return &edfPolicy{
			served: make([]bool, n),
			quota:  make([]int, n),
			frac:   make([]float64, n),
		}, nil
	}
	return nil, fmt.Errorf("unknown airtime policy %q (%s)", p, PolicyNames())
}

// rrPolicy is the historical round-robin policy: every active player
// gets an equal (weight-scaled) share. With nil weights the resulting
// sub-slot boundaries are bit-identical to the pre-policy scheduler.
type rrPolicy struct{}

func (rrPolicy) Shares(w *window, shares []float64) {
	for i := range shares {
		if w.Active[i] {
			shares[i] = w.Weight(i)
		}
	}
}

// pfPolicy is proportional-fair airtime: shares proportional to each
// player's recent geometric link quality (AP proximity discounted by
// body blockage, averaged over the trailing qualityLookback windows).
// Airtime flows to the players the tracking data says can convert it to
// delivered frames; a player boxed in behind other bodies stops taxing
// the medium it could not use anyway.
type pfPolicy struct {
	q []float64 // per-player recent-quality scratch
}

func (p *pfPolicy) Shares(w *window, shares []float64) {
	// One bulk lookback pass per window: every lookback window's poses
	// are evaluated once for all players.
	w.lay.recentQualityInto(w.Index, p.q)
	for i := range shares {
		if w.Active[i] {
			shares[i] = w.Weight(i) * p.q[i]
		}
	}
}

// edfMinFrames is the smallest slot the deadline-aware policy will
// schedule, in display frame intervals. A slot shorter than a frame
// interval can never carry a whole frame before its deadline; two
// intervals guarantee at least one wholly-covered frame whatever the
// slot's phase against the display clock.
const edfMinFrames = 2

// edfPolicy is deadline-aware slot sizing. Slicing every window evenly
// — the round-robin policy — puts slot boundaries in the middle of
// display frame intervals: the frame straddling a boundary is
// transmitted partially by one player's slot and abandoned at its
// deadline, so the airtime on both sides of every misaligned boundary
// is wasted. This policy instead
//
//   - grants airtime in whole frame-deadline units: every interior slot
//     boundary is placed on the display's absolute frame-deadline grid,
//     so no boundary splits a frame interval — a slot either carries a
//     frame to its deadline whole or does not start it, and a player
//     whose entitlement rounds to zero whole frames this window gets no
//     slot at all rather than a sub-frame sliver of wasted air;
//   - with equal weights, serves only as many players per window as can
//     each receive at least edfMinFrames whole frame intervals,
//     rotating the service block by its own size every window so the
//     players who have waited longest — the ones closest to missing
//     their next frame deadline — are served next;
//   - with unequal weights, apportions the window's whole frame
//     intervals across every active player in proportion to weight,
//     carrying each player's fractional entitlement across windows in
//     closed form (a 1-vs-3 weighted pair receives 1 and 3 of a
//     4-frame window; a tiny-weight player accrues entitlement until a
//     whole frame rolls over, instead of starving or being handed
//     unusable slivers).
type edfPolicy struct {
	served []bool    // active players picked for this window
	quota  []int     // whole frame intervals granted, by player
	frac   []float64 // fractional entitlements, by player
}

func (p *edfPolicy) Shares(w *window, shares []float64) {
	frame := frameInterval
	if w.Downlink < frame {
		// The downlink span cannot carry even one whole frame: no
		// sizing can save a deadline, fall back to the even split.
		rrPolicy{}.Shares(w, shares)
		return
	}
	// The display's deadline grid: first deadline edge on or after the
	// downlink start, and the count of whole frame intervals between it
	// and the window end.
	ds := w.DownStart
	g0 := ((ds + frame - 1) / frame) * frame
	f := int((ds + w.Downlink - g0) / frame)
	if f < 1 {
		rrPolicy{}.Shares(w, shares)
		return
	}

	n := len(w.Active)
	for i := 0; i < n; i++ {
		p.quota[i] = 0
	}
	if p.uniformWeights(w) {
		p.blockQuotas(w, f)
	} else {
		p.weightedQuotas(w, f)
	}

	// Slot widths, in the scheduler's slot-layout order (cyclic from
	// the rotation offset — the same order the scheduler lays sub-slots
	// out in, so cumulative quota boundaries land exactly on the
	// deadline grid): the first slot absorbs the sub-frame lead-in
	// before g0, the last the tail after the final deadline edge;
	// interior boundaries sit on the grid. Shares are the widths
	// themselves (the scheduler normalizes).
	//
	// Some quota is always positive, so last is always set: the quotas
	// sum to exactly f >= 1. blockQuotas serves nServe players, with
	// 1 <= nServe <= max(1, f/edfMinFrames) <= f, and grants each one
	// base = f/nServe >= 1 plus the remainder spread over the first;
	// weightedQuotas pads or trims its grants to exactly f.
	layoutOff := int(w.Index % int64(n))
	last := -1
	for o := 0; o < n; o++ {
		i := (layoutOff + o) % n
		if p.quota[i] > 0 {
			last = i
		}
	}
	lo := ds
	cum := 0
	for o := 0; o < n; o++ {
		i := (layoutOff + o) % n
		if p.quota[i] == 0 {
			continue
		}
		cum += p.quota[i]
		hi := g0 + frame*time.Duration(cum)
		if i == last {
			hi = ds + w.Downlink
		}
		shares[i] = float64(hi - lo)
		lo = hi
	}
}

// uniformWeights reports whether every active player carries the same
// airtime weight — the common (nil-weights) case the concentration
// path serves.
func (p *edfPolicy) uniformWeights(w *window) bool {
	if w.Weights == nil {
		return true
	}
	first := -1.0
	for i := range w.Active {
		if !w.Active[i] {
			continue
		}
		if first < 0 {
			first = w.Weights[i]
			continue
		}
		if w.Weights[i] != first {
			return false
		}
	}
	return true
}

// blockQuotas is the equal-weight service pattern: only as many players
// per window as can each receive at least edfMinFrames whole frame
// intervals, the service block rotating by its own size every window so
// service frequency stays uniform and the longest-waiting players are
// served next. The f frame intervals split as evenly as integers allow,
// extras to the earliest slots — the ones nearest their deadline.
func (p *edfPolicy) blockQuotas(w *window, f int) {
	nServe := f / edfMinFrames
	if nServe < 1 {
		nServe = 1
	}
	if nServe > w.NActive {
		nServe = w.NActive
	}
	off := int((w.Index * int64(nServe)) % int64(w.NActive))
	rank := 0
	for i := range w.Active {
		p.served[i] = false
		if !w.Active[i] {
			continue
		}
		d := rank - off
		if d < 0 {
			d += w.NActive
		}
		p.served[i] = d < nServe
		rank++
	}
	n := len(w.Active)
	layoutOff := int(w.Index % int64(n))
	base, rem := f/nServe, f%nServe
	for o := 0; o < n; o++ {
		i := (layoutOff + o) % n
		if !p.served[i] {
			continue
		}
		p.quota[i] = base
		if rem > 0 {
			p.quota[i]++
			rem--
		}
	}
}

// weightedQuotas apportions the f whole frame intervals across every
// active player in proportion to weight. Each player's cumulative
// entitlement through this window — Index·f·share, phase-offset by
// active rank so equal entitlements do not roll over in lockstep — is
// evaluated in closed form, and the player receives the whole frames
// that entitlement gained this window: a pure function of the window
// index, so concurrently simulated sessions agree, yet fractional
// entitlement carries across windows and a tiny-weight player
// periodically collects a whole usable frame instead of starving.
// Grants are padded/trimmed to exactly f, preferring the entitlements
// closest to rolling over.
func (p *edfPolicy) weightedQuotas(w *window, f int) {
	n := len(w.Active)
	sumW := 0.0
	for i := range w.Active {
		if w.Active[i] {
			sumW += w.Weight(i)
		}
	}
	total := 0
	rank := 0
	for i := 0; i < n; i++ {
		p.frac[i] = -1
		if !w.Active[i] {
			continue
		}
		ws := w.Weight(i) / sumW
		phase := float64(rank) / float64(w.NActive)
		rank++
		c1 := (float64(w.Index)+1)*float64(f)*ws + phase
		c0 := float64(w.Index)*float64(f)*ws + phase
		q := int(math.Floor(c1)) - int(math.Floor(c0))
		if q < 0 {
			q = 0
		}
		p.quota[i] = q
		p.frac[i] = c1 - math.Floor(c1)
		total += q
	}
	layoutOff := int(w.Index % int64(n))
	for ; total < f; total++ {
		best := -1
		for o := 0; o < n; o++ {
			i := (layoutOff + o) % n
			if w.Active[i] && (best < 0 || p.frac[i] > p.frac[best]) {
				best = i
			}
		}
		p.quota[best]++
		p.frac[best]--
	}
	// Trims come out of the largest grant: a heavy player recovers the
	// odd withheld frame within a window or two, whereas trimming the
	// smallest fraction would systematically reclaim a light player's
	// rare rollover frame the moment it lands (its fraction is near
	// zero right after rolling over, and the closed-form entitlement
	// cannot carry the debt forward).
	for ; total > f; total-- {
		worst := -1
		for o := 0; o < n; o++ {
			i := (layoutOff + o) % n
			if !w.Active[i] || p.quota[i] == 0 {
				continue
			}
			if worst < 0 || p.quota[i] > p.quota[worst] ||
				(p.quota[i] == p.quota[worst] && p.frac[i] < p.frac[worst]) {
				worst = i
			}
		}
		p.quota[worst]--
	}
}
