package sim

import (
	"testing"
	"time"
)

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	n := e.Run(time.Second)
	if n != 3 {
		t.Fatalf("executed %d", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New()
	var seen time.Duration
	e.At(e.Now()+15*time.Millisecond, func() {
		seen = e.Now()
		e.At(e.Now()+10*time.Millisecond, func() { seen = e.Now() })
	})
	e.Run(time.Second)
	if seen != 25*time.Millisecond {
		t.Errorf("nested time = %v", seen)
	}
	if e.Now() != time.Second {
		t.Errorf("Now after run = %v, want horizon", e.Now())
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New()
	ran := false
	e.At(50*time.Millisecond, func() {
		e.At(10*time.Millisecond, func() { ran = true }) // in the past
	})
	e.Run(100 * time.Millisecond)
	if !ran {
		t.Error("past-scheduled event should run at current time")
	}
	// A negative time clamps to the start.
	e2 := New()
	e2.At(e2.Now()-time.Second, func() { ran = true })
	if e2.Run(time.Second) != 1 {
		t.Error("negative time should still run")
	}
}

func TestHorizonStopsRun(t *testing.T) {
	e := New()
	count := 0
	e.Every(0, 10*time.Millisecond, func() { count++ })
	e.Run(95 * time.Millisecond)
	// Ticks at 0,10,...,90 = 10 events.
	if count != 10 {
		t.Errorf("tick count = %d, want 10", count)
	}
	// Continue running: the queue resumes where it stopped.
	e.Run(125 * time.Millisecond)
	if count != 13 {
		t.Errorf("tick count after resume = %d, want 13", count)
	}
}

func TestEventAtHorizonRuns(t *testing.T) {
	e := New()
	ran := false
	e.At(time.Second, func() { ran = true })
	e.Run(time.Second)
	if !ran {
		t.Error("event exactly at horizon should run")
	}
}

func TestEveryInvalidPeriod(t *testing.T) {
	e := New()
	e.Every(0, 0, func() { t.Fatal("should never run") })
	if n := e.Run(time.Second); n != 0 {
		t.Errorf("invalid period ran %d events, want none", n)
	}
}
