package obs

import (
	"math"
	"testing"
	"time"
)

func TestNilRecorderIsNoOpAndFree(t *testing.T) {
	var r *Recorder
	// Every method must be nil-safe.
	r.SetClock(func() time.Duration { return time.Second })
	r.Emit(KindHandoff, 1, 2, 3, 4)
	r.EmitAt(time.Second, KindFrameOK, 1, 0, 0.5, 0)
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder holds state")
	}

	allocs := testing.AllocsPerRun(200, func() {
		r.Emit(KindReassess, 0, 0, 12.5, 2e9)
		r.EmitAt(time.Millisecond, KindFrameMiss, 3, 0, 0.25, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates: %v allocs/op", allocs)
	}
}

func TestRecordZeroAllocsSteadyState(t *testing.T) {
	r := NewRecorder(64)
	clock := time.Duration(0)
	r.SetClock(func() time.Duration { return clock })
	allocs := testing.AllocsPerRun(500, func() {
		clock += time.Millisecond
		r.Emit(KindReassess, 1, 0, 15.0, 3e9)
		r.EmitAt(clock, KindFrameOK, 7, 0, 0.004, 0)
	})
	if allocs != 0 {
		t.Fatalf("live recorder allocates in steady state: %v allocs/op", allocs)
	}
	if r.Dropped() == 0 {
		t.Fatal("expected ring wrap during the alloc loop")
	}
}

func TestRingOrderAndOverflow(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.EmitAt(time.Duration(i)*time.Millisecond, KindFrameOK, int32(i), 0, 0, 0)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	// The newest four events survive, in emission order.
	for i, ev := range evs {
		want := int32(6 + i)
		if ev.A != want {
			t.Errorf("event %d: A = %d, want %d", i, ev.A, want)
		}
		if ev.T != time.Duration(want)*time.Millisecond {
			t.Errorf("event %d: T = %v, want %v", i, ev.T, time.Duration(want)*time.Millisecond)
		}
	}
}

func TestRingWrapSplitCopy(t *testing.T) {
	// Force a wrapped ring (start > 0) and check Events stitches the
	// two halves back in order.
	r := NewRecorder(5)
	for i := 0; i < 8; i++ {
		r.EmitAt(0, KindFrameOK, int32(i), 0, 0, 0)
	}
	evs := r.Events()
	want := []int32{3, 4, 5, 6, 7}
	for i, ev := range evs {
		if ev.A != want[i] {
			t.Fatalf("wrapped Events[%d].A = %d, want %d", i, ev.A, want[i])
		}
	}
}

func TestEmitSanitizesNonFinite(t *testing.T) {
	r := NewRecorder(8)
	r.EmitAt(0, KindLinkDown, 0, 0, math.Inf(-1), math.NaN())
	r.EmitAt(0, KindLinkUp, 0, 0, math.Inf(1), 0)
	evs := r.Events()
	if evs[0].X != -math.MaxFloat64 {
		t.Errorf("-Inf not clamped: %v", evs[0].X)
	}
	if evs[0].Y != 0 {
		t.Errorf("NaN not zeroed: %v", evs[0].Y)
	}
	if evs[1].X != math.MaxFloat64 {
		t.Errorf("+Inf not clamped: %v", evs[1].X)
	}
}

func TestClockStampsEmit(t *testing.T) {
	r := NewRecorder(8)
	now := 42 * time.Millisecond
	r.SetClock(func() time.Duration { return now })
	r.Emit(KindHandoff, 0, 1, 10, 0)
	if got := r.Events()[0].T; got != now {
		t.Fatalf("Emit T = %v, want %v", got, now)
	}
}
