// Package sim is a small discrete-event simulation engine: a virtual
// clock and an ordered event queue. The VR streaming experiments use it
// to interleave frame generation, link re-evaluation, motion updates, and
// blockage events with microsecond bookkeeping and no wall-clock cost.
package sim

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine runs events in virtual time.
type Engine struct {
	now   time.Duration
	seq   uint64
	queue eventQueue

	// free recycles executed event structs, so steady-state periodic
	// schedules (Every, frame chains) allocate nothing.
	free []*event
}

// New returns an Engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at absolute virtual time t; times in the past run at
// the current time.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = t, e.seq, fn
	} else {
		ev = &event{at: t, seq: e.seq, fn: fn}
	}
	heap.Push(&e.queue, ev)
}

// Every schedules fn at the given period starting at start, until the
// run horizon ends.
func (e *Engine) Every(start, period time.Duration, fn func()) {
	if period <= 0 {
		return
	}
	var tick func()
	next := start
	tick = func() {
		fn()
		next += period
		e.At(next, tick)
	}
	e.At(start, tick)
}

// Run executes events in order until the queue empties or virtual time
// would pass the horizon. It returns the number of events executed.
// Events scheduled exactly at the horizon still run.
func (e *Engine) Run(horizon time.Duration) int {
	executed := 0
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.at > horizon {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.at
		fn := next.fn
		// Recycle before running fn so a reschedule inside it (Every's
		// tick, a frame chain) reuses this struct immediately.
		next.fn = nil
		e.free = append(e.free, next)
		fn()
		executed++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return executed
}
