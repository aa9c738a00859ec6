package coex

import (
	"math"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/vr"
)

// movingRoom generates a seeded 4-player room of walking traces in the
// arcade bay footprint — the workload the fleet coex scenario runs.
func movingRoom(t *testing.T, seed int64, players int, dur time.Duration) []vr.Trace {
	t.Helper()
	traces := make([]vr.Trace, players)
	for i := range traces {
		cfg := vr.DefaultTraceConfig(8, 8, seed+int64(i)*977)
		cfg.Duration = dur
		tr, err := vr.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
	}
	return traces
}

// referenceRRWindow is a frozen copy of the pre-policy scheduler's
// computeWindow (round-robin even split with idle-reclaim), kept as the
// byte-identity oracle for the default policy: whatever the policy
// machinery does, PolicyRR must reproduce these sub-slot boundaries
// exactly. l supplies the room's traces, period and LOS test.
func referenceRRWindow(l *layout, self int, win int64) (active bool, slotStart, slotEnd time.Duration) {
	start := l.period * time.Duration(win)
	n := len(l.players)
	poses := make([]geom.Vec, n)
	for i, tr := range l.players {
		poses[i] = tr.At(start).Pos
	}
	act := make([]bool, n)
	nActive := 0
	for i := range l.players {
		act[i] = l.losClear(poses, i)
		if act[i] {
			nActive++
		}
	}
	if nActive == 0 {
		for i := range act {
			act[i] = true
		}
		nActive = n
	}
	if !act[self] {
		return false, 0, 0
	}
	rank := 0
	for off := 0; off < n; off++ {
		i := (int(win%int64(n)) + off) % n
		if i == self {
			break
		}
		if act[i] {
			rank++
		}
	}
	slotStart = start + l.period*time.Duration(rank)/time.Duration(nActive)
	slotEnd = start + l.period*time.Duration(rank+1)/time.Duration(nActive)
	return true, slotStart, slotEnd
}

// TestRRByteIdenticalToFrozenReference pins the tentpole's contract:
// the default policy's schedule is bit-identical to the pre-refactor
// round-robin scheduler, window by window, over seeded moving rooms.
func TestRRByteIdenticalToFrozenReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rm := Room{Players: movingRoom(t, seed, 4, 3*time.Second)}
		l, err := newLayout(rm, apPos)
		if err != nil {
			t.Fatal(err)
		}
		for self, s := range roomSchedulers(t, rm) {
			for win := int64(0); win < 60; win++ {
				wantActive, wantStart, wantEnd := referenceRRWindow(l, self, win)
				s.computeWindow(win)
				if s.selfActive != wantActive {
					t.Fatalf("seed %d self %d win %d: active = %v, want %v", seed, self, win, s.selfActive, wantActive)
				}
				if wantActive && (s.slotStart != wantStart || s.slotEnd != wantEnd) {
					t.Fatalf("seed %d self %d win %d: slot [%v,%v), want [%v,%v)",
						seed, self, win, s.slotStart, s.slotEnd, wantStart, wantEnd)
				}
			}
		}
	}
}

// TestAirtimeConservation is the partition property every policy must
// uphold: in every scheduling window of every seeded room, the active
// players' sub-slots tile the window exactly — no overlap, no gap — and
// their widths sum to the window span minus the pose-uplink reservation.
func TestAirtimeConservation(t *testing.T) {
	type slot struct{ start, end time.Duration }
	for _, policy := range Policies() {
		for _, uplink := range []time.Duration{0, 500 * time.Microsecond} {
			for _, seed := range []int64{1, 7} {
				players := movingRoom(t, seed, 4, 2*time.Second)
				rm := Room{
					Players:    players,
					Policy:     policy,
					Weights:    []float64{1, 2, 1, 3},
					UplinkSlot: uplink,
				}
				scheds := roomSchedulers(t, rm)
				// A second layout of the same room, stepped window by
				// window, reports each window's uplink end.
				l, err := newLayout(rm, apPos)
				if err != nil {
					t.Fatal(err)
				}
				act := make([]bool, len(players))
				starts := make([]time.Duration, len(players))
				ends := make([]time.Duration, len(players))
				for win := int64(0); win < 40; win++ {
					start := DefaultPeriod * time.Duration(win)
					end := start + DefaultPeriod
					var slots []slot
					upEnd := l.layoutWindow(win, act, starts, ends)
					for _, s := range scheds {
						s.computeWindow(win)
						if !s.selfActive {
							continue
						}
						slots = append(slots, slot{s.slotStart, s.slotEnd})
					}
					if len(slots) == 0 {
						t.Fatalf("%s seed %d win %d: no player holds the medium", policy, seed, win)
					}
					// Sort the (few) slots by start.
					for i := 1; i < len(slots); i++ {
						for j := i; j > 0 && slots[j].start < slots[j-1].start; j-- {
							slots[j], slots[j-1] = slots[j-1], slots[j]
						}
					}
					if slots[0].start != upEnd {
						t.Fatalf("%s seed %d win %d: first slot starts at %v, want the uplink end %v",
							policy, seed, win, slots[0].start, upEnd)
					}
					total := time.Duration(0)
					for i, sl := range slots {
						if sl.end < sl.start || sl.start < start || sl.end > end {
							t.Fatalf("%s seed %d win %d: slot [%v,%v) escapes window [%v,%v)",
								policy, seed, win, sl.start, sl.end, start, end)
						}
						if i > 0 && sl.start != slots[i-1].end {
							t.Fatalf("%s seed %d win %d: gap or overlap between %v and %v",
								policy, seed, win, slots[i-1].end, sl.start)
						}
						total += sl.end - sl.start
					}
					if last := slots[len(slots)-1].end; last != end {
						t.Fatalf("%s seed %d win %d: last slot ends at %v, want the window end %v",
							policy, seed, win, last, end)
					}
					if want := end - upEnd; total != want {
						t.Fatalf("%s seed %d win %d: slots cover %v, want span-minus-uplink %v",
							policy, seed, win, total, want)
					}
				}
			}
		}
	}
}

// TestPolicySharesAreWellFormed pins what lets layoutWindow lay out a
// policy's shares as they come: in every window of the seeded rooms,
// with and without the uplink reservation and weights, every built-in
// policy gives each inactive player exactly 0, every player a finite,
// non-negative share, and some active player a positive one. The rooms
// must block players in some windows, or the inactive case goes
// untested.
func TestPolicySharesAreWellFormed(t *testing.T) {
	for _, policy := range Policies() {
		blocked := 0
		for _, uplink := range []time.Duration{0, 500 * time.Microsecond} {
			for _, weights := range [][]float64{nil, {1, 2, 1, 3}} {
				for _, seed := range []int64{1, 7} {
					players := movingRoom(t, seed, 4, 2*time.Second)
					rm := Room{Players: players, Policy: policy, Weights: weights, UplinkSlot: uplink}
					l, err := newLayout(rm, apPos)
					if err != nil {
						t.Fatal(err)
					}
					act := make([]bool, len(players))
					starts := make([]time.Duration, len(players))
					ends := make([]time.Duration, len(players))
					shares := make([]float64, len(players))
					for win := int64(0); win < 40; win++ {
						l.layoutWindow(win, act, starts, ends)
						clear(shares)
						l.policy.Shares(&l.win, shares)
						positive := false
						for i, sh := range shares {
							switch {
							case !l.win.Active[i]:
								blocked++
								if sh != 0 {
									t.Fatalf("%s seed %d win %d: inactive player %d gets share %v", policy, seed, win, i, sh)
								}
							case !(sh >= 0) || math.IsInf(sh, 0):
								t.Fatalf("%s seed %d win %d: player %d gets share %v", policy, seed, win, i, sh)
							case sh > 0:
								positive = true
							}
						}
						if !positive {
							t.Fatalf("%s seed %d win %d: no active player gets a positive share: %v", policy, seed, win, shares)
						}
					}
				}
			}
		}
		if blocked == 0 {
			t.Errorf("%s: no window blocked a player", policy)
		}
	}
}

// TestComputeWindowAllocationFree pins the zero-alloc discipline: after
// construction, laying out window after window — the policy evaluation
// included — allocates nothing, for every policy, with weights and the
// uplink reservation enabled; nor does a scheduler advancing across the
// resulting table's windows.
func TestComputeWindowAllocationFree(t *testing.T) {
	players := movingRoom(t, 7, 4, 3*time.Second)
	for _, policy := range Policies() {
		rm := Room{
			Players:    players,
			Self:       1,
			Policy:     policy,
			Weights:    []float64{1, 2, 1, 3},
			UplinkSlot: 200 * time.Microsecond,
		}
		l, err := newLayout(rm, apPos)
		if err != nil {
			t.Fatal(err)
		}
		act := make([]bool, len(players))
		starts := make([]time.Duration, len(players))
		ends := make([]time.Duration, len(players))
		win := int64(0)
		allocs := testing.AllocsPerRun(50, func() {
			l.layoutWindow(win, act, starts, ends)
			win++
		})
		if allocs != 0 {
			t.Errorf("policy %s: layoutWindow allocates %v times per window, want 0", policy, allocs)
		}

		s := mustScheduler(t, rm)
		s.Share(0) // warm the first window
		at := time.Duration(0)
		allocs = testing.AllocsPerRun(50, func() {
			at += 7 * time.Millisecond // crosses a window boundary most runs
			s.Share(at)
		})
		if allocs != 0 {
			t.Errorf("policy %s: Share allocates %v times per window advance, want 0", policy, allocs)
		}
	}
}

// TestUplinkReservationLowersDownlinkAirtime pins the uplink model's
// acceptance property: reserving a pose sub-slot per player strictly
// lowers every session's downlink airtime, by exactly the reservation
// when everyone stays active.
func TestUplinkReservationLowersDownlinkAirtime(t *testing.T) {
	players := movingRoom(t, 7, 4, 2*time.Second)
	for _, policy := range Policies() {
		for self := range players {
			plain := mustScheduler(t, Room{Players: players, Self: self, Policy: policy})
			up := mustScheduler(t, Room{Players: players, Self: self, Policy: policy, UplinkSlot: time.Millisecond})
			got, want := shareIntegral(up, 2*time.Second), shareIntegral(plain, 2*time.Second)
			if !(got < want) {
				t.Errorf("policy %s self %d: airtime with uplink = %v, want strictly below %v",
					policy, self, got, want)
			}
		}
	}
	// A reservation that leaves no downlink airtime is a config error.
	if _, err := BuildGeometry(Room{
		Players:    []vr.Trace{standing(geom.V(4, 4)), standing(geom.V(2, 6))},
		UplinkSlot: 25 * time.Millisecond,
	}, apPos, 10*time.Millisecond, time.Second); err == nil {
		t.Error("BuildGeometry accepted an uplink reservation that swallows the whole window")
	}
}

// TestWeightsSkewAirtime pins the per-player weight support shared by
// every policy: a weight-3 player holds roughly three times the airtime
// of a weight-1 peer under round-robin, and weights are validated.
func TestWeightsSkewAirtime(t *testing.T) {
	players := []vr.Trace{standing(geom.V(6, 2)), standing(geom.V(2, 6))}
	scheds := roomSchedulers(t, Room{Players: players, Weights: []float64{3, 1}})
	heavy, light := scheds[0], scheds[1]
	h, l := shareIntegral(heavy, time.Second), shareIntegral(light, time.Second)
	if math.Abs(h-0.75) > 0.01 || math.Abs(l-0.25) > 0.01 {
		t.Errorf("weighted shares = %v/%v, want 0.75/0.25", h, l)
	}

	bad := []Room{
		{Players: players, Weights: []float64{1}},     // wrong length
		{Players: players, Weights: []float64{1, 0}},  // zero weight
		{Players: players, Weights: []float64{1, -2}}, // negative
		{Players: players, Weights: []float64{1, math.NaN()}},
		{Players: players, Weights: []float64{1, math.Inf(1)}},
		{Players: players, UplinkSlot: -time.Millisecond}, // negative uplink
		{Players: players, Policy: "fifo"},                // unknown policy
	}
	for i, rm := range bad {
		if _, err := BuildGeometry(rm, apPos, 10*time.Millisecond, time.Second); err == nil {
			t.Errorf("case %d: BuildGeometry accepted an invalid room", i)
		}
	}
}

// TestPolicyRoundTrip pins the policy vocabulary surface shared by the
// CLI and the job API.
func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %q, %v", p, got, err)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyRR {
		t.Errorf("ParsePolicy(\"\") = %q, %v, want the rr default", p, err)
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
	for _, p := range Policies() {
		pol, err := newPolicy(p, 2)
		var built PolicyName
		switch pol.(type) {
		case rrPolicy:
			built = PolicyRR
		case *pfPolicy:
			built = PolicyPF
		case *edfPolicy:
			built = PolicyEDF
		}
		if err != nil || built != p {
			t.Errorf("newPolicy(%q) built %T, %v", p, pol, err)
		}
	}
}

// TestEDFBoundariesOnDeadlineGrid pins the deadline-aware policy's
// defining property end to end through the scheduler's integer slot
// layout: every interior sub-slot boundary lands exactly on the
// display's absolute frame-deadline grid — to the nanosecond, not
// merely near it — so no boundary ever splits a frame interval.
func TestEDFBoundariesOnDeadlineGrid(t *testing.T) {
	players := movingRoom(t, 7, 4, 2*time.Second)
	frame := vr.HTCVive().FrameInterval()
	scheds := roomSchedulers(t, Room{Players: players, Policy: PolicyEDF})
	interior := 0
	for win := int64(0); win < 40; win++ {
		start := DefaultPeriod * time.Duration(win)
		end := start + DefaultPeriod
		for _, s := range scheds {
			s.computeWindow(win)
			if !s.selfActive {
				continue
			}
			for _, b := range []time.Duration{s.slotStart, s.slotEnd} {
				if b == start || b == end {
					continue // the window edges bound the outer slots
				}
				interior++
				if b%frame != 0 {
					t.Fatalf("win %d: boundary %v is %v off the frame-deadline grid",
						win, b, b%frame)
				}
			}
		}
	}
	if interior == 0 {
		t.Fatal("no interior slot boundaries exercised")
	}
}

// TestEDFQuotasTileTheDeadlineGrid pins the invariant the deadline-aware
// policy's slot layout rests on: in every window, on both the uniform
// (block) and the weighted path, the whole frame intervals granted sum
// to exactly the f intervals the downlink span holds, so some player
// always holds a positive quota.
func TestEDFQuotasTileTheDeadlineGrid(t *testing.T) {
	players := movingRoom(t, 7, 4, 2*time.Second)
	up := 300 * time.Microsecond
	weights := []float64{3, 1, 2, 0.5}
	for name, rm := range map[string]Room{
		"uniform":            {Players: players, Policy: PolicyEDF, UplinkSlot: up},
		"uniform 3 at 100ms": {Players: players[:3], Policy: PolicyEDF, UplinkSlot: up, Period: 100 * time.Millisecond},
		"weighted":           {Players: players, Policy: PolicyEDF, UplinkSlot: up, Weights: weights},
		"weighted 100ms":     {Players: players, Policy: PolicyEDF, UplinkSlot: up, Weights: weights, Period: 100 * time.Millisecond},
	} {
		l, err := newLayout(rm, apPos)
		if err != nil {
			t.Fatal(err)
		}
		edf := l.policy.(*edfPolicy)
		n := len(rm.Players)
		active, starts, ends := make([]bool, n), make([]time.Duration, n), make([]time.Duration, n)
		for win := int64(0); win < 40; win++ {
			l.layoutWindow(win, active, starts, ends)
			ds, down := l.win.DownStart, l.win.Downlink
			g0 := ((ds + frameInterval - 1) / frameInterval) * frameInterval
			f := int((ds + down - g0) / frameInterval)
			if f < 1 {
				t.Fatalf("%s win %d: downlink %v holds no whole frame interval", name, win, down)
			}
			sum := 0
			for _, q := range edf.quota {
				sum += q
			}
			if sum != f {
				t.Fatalf("%s win %d: quotas %v sum to %d, want the window's %d frame intervals", name, win, edf.quota, sum, f)
			}
		}
	}
}

// TestEDFWeightsSkewAirtime pins the weight contract on the
// deadline-aware policy: long-run airtime tracks the weights even
// though grants are quantized to whole frame intervals, and extreme
// weight ratios neither starve the light player nor hand it sub-frame
// sliver slots (its entitlement accrues until a whole usable frame
// rolls over).
func TestEDFWeightsSkewAirtime(t *testing.T) {
	players := []vr.Trace{standing(geom.V(6, 2)), standing(geom.V(2, 6))}
	scheds := roomSchedulers(t, Room{Players: players, Policy: PolicyEDF, Weights: []float64{3, 1}})
	heavy, light := scheds[0], scheds[1]
	h, l := shareIntegral(heavy, 5*time.Second), shareIntegral(light, 5*time.Second)
	if math.Abs(h-0.75) > 0.05 || math.Abs(l-0.25) > 0.05 {
		t.Errorf("edf weighted shares = %.3f/%.3f, want ≈0.75/0.25", h, l)
	}

	// A 1:99 ratio: the light player still collects real airtime — in
	// whole-frame grants, never slivers shorter than a frame interval.
	frame := vr.HTCVive().FrameInterval()
	tiny := mustScheduler(t, Room{Players: players, Self: 1, Policy: PolicyEDF, Weights: []float64{99, 1}})
	got := shareIntegral(tiny, 5*time.Second)
	if got <= 0 || got > 0.05 {
		t.Errorf("1%%-weight player airtime = %.4f, want a small positive share", got)
	}
	for win := int64(0); win < 100; win++ {
		tiny.computeWindow(win)
		if !tiny.selfActive {
			continue
		}
		if width := tiny.slotEnd - tiny.slotStart; width < frame {
			t.Fatalf("win %d: 1%%-weight player granted a %v sliver, below the %v frame interval", win, width, frame)
		}
	}
}

// TestPolicySchedulesDiverge sanity-checks that pf and edf are not
// silently rr: over a contended moving room their schedules differ from
// the round-robin baseline in at least one window.
func TestPolicySchedulesDiverge(t *testing.T) {
	players := movingRoom(t, 7, 4, 2*time.Second)
	for _, policy := range []PolicyName{PolicyPF, PolicyEDF} {
		rr := mustScheduler(t, Room{Players: players, Self: 0})
		alt := mustScheduler(t, Room{Players: players, Self: 0, Policy: policy})
		diverged := false
		for win := int64(0); win < 40 && !diverged; win++ {
			rr.computeWindow(win)
			alt.computeWindow(win)
			if rr.selfActive != alt.selfActive || rr.slotStart != alt.slotStart || rr.slotEnd != alt.slotEnd {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("policy %s produced the identical schedule to rr over 40 windows", policy)
		}
	}
}

// TestMaxAdmissibleUplinkEdge pins admission at the window's edge: an
// uplink reservation equal to the period leaves no downlink airtime for
// even one player (0 admitted under every policy), and one nanosecond
// less admits exactly one — the deadline-aware policy included, whose
// whole-frame rule never refuses the last player.
func TestMaxAdmissibleUplinkEdge(t *testing.T) {
	const period = 100 * time.Millisecond
	for _, p := range []PolicyName{PolicyRR, PolicyPF, PolicyEDF} {
		for _, tc := range []struct {
			uplink time.Duration
			want   int
		}{
			{period, 0},
			{period - time.Nanosecond, 1},
		} {
			if got := MaxAdmissible(p, 4, period, tc.uplink); got != tc.want {
				t.Errorf("MaxAdmissible(%s, 4, %v, %v) = %d, want %d", p, period, tc.uplink, got, tc.want)
			}
		}
	}
}
