package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEverything(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0, 100} {
		var ran atomic.Int64
		err := ForEach(context.Background(), 50, workers, func(ctx context.Context, i int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: ran %d of 50", workers, ran.Load())
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 40, workers, func(ctx context.Context, i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestForEachPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := ForEach(context.Background(), 10, 1, func(ctx context.Context, i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "item 3") {
		t.Errorf("error %q should name the failing item", err)
	}
	// Sequential single worker: nothing after the failing item runs.
	if len(ran) != 4 {
		t.Errorf("ran %v; items after the failure should be skipped", ran)
	}
}

func TestForEachErrorCancelsContext(t *testing.T) {
	boom := errors.New("boom")
	otherStarted := make(chan struct{})
	var once sync.Once
	var sawCancel atomic.Bool
	err := ForEach(context.Background(), 100, 4, func(ctx context.Context, i int) error {
		if i == 0 {
			// Fail only once a sibling item is in flight, so the
			// cancellation has a live observer.
			select {
			case <-otherStarted:
			case <-time.After(time.Second):
			}
			return boom
		}
		once.Do(func() { close(otherStarted) })
		select {
		case <-ctx.Done():
			sawCancel.Store(true)
		case <-time.After(time.Second):
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !sawCancel.Load() {
		t.Error("no in-flight item observed the cancelled context after an error")
	}
}

func TestForEachHonorsExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 1000, 1, func(ctx context.Context, i int) error {
		if i == 5 {
			cancel()
		}
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > 10 {
		t.Errorf("ran %d items after external cancel", n)
	}
}

func TestForEachRecoversPanic(t *testing.T) {
	err := ForEach(context.Background(), 8, 2, func(ctx context.Context, i int) error {
		if i == 2 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic converted to error", err)
	}
}

func TestMapKeepsIndexOrder(t *testing.T) {
	for _, capacity := range []int{1, 7} {
		out, err := Map(context.Background(), NewRunner(capacity), 64, func(ctx context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("capacity=%d: out[%d] = %d", capacity, i, v)
			}
		}
	}
}

// TestMapOnKeepsIndexOrder keeps the name of the test of MapOn, which Map
// replaced: concurrent Map calls sharing one Runner each get their own
// results back in index order.
func TestMapOnKeepsIndexOrder(t *testing.T) {
	r := NewRunner(7)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out, err := Map(context.Background(), r, 64, func(ctx context.Context, i int) (int, error) {
				return c*1000 + i*i, nil
			})
			if err != nil {
				errs[c] = err
				return
			}
			for i, v := range out {
				if v != c*1000+i*i {
					errs[c] = fmt.Errorf("call %d: out[%d] = %d", c, i, v)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMapDiscardsOnError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), NewRunner(2), 4, func(ctx context.Context, i int) (int, error) {
		return i, boom
	})
	if err == nil || out != nil {
		t.Fatalf("out=%v err=%v, want nil results and an error", out, err)
	}
}

func TestWorkersNormalization(t *testing.T) {
	if w := Workers(0, 100); w < 1 {
		t.Errorf("Workers(0,100) = %d", w)
	}
	if w := Workers(16, 4); w != 4 {
		t.Errorf("Workers(16,4) = %d, want clamped to n", w)
	}
	if w := Workers(-3, 0); w != 1 {
		t.Errorf("Workers(-3,0) = %d, want 1", w)
	}
}

func TestRunnerRunsEverything(t *testing.T) {
	r := NewRunner(3)
	var ran atomic.Int64
	if err := r.ForEach(context.Background(), 50, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d of 50", ran.Load())
	}
}

func TestRunnerBoundsConcurrencyAcrossCalls(t *testing.T) {
	// Two concurrent ForEach calls share the same 3 slots: their summed
	// in-flight item count must never exceed the Runner's capacity.
	r := NewRunner(3)
	var cur, peak atomic.Int64
	item := func(ctx context.Context, i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = r.ForEach(context.Background(), 30, item)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak in-flight %d exceeds shared capacity 3", p)
	}
}

func TestRunnerCancelReleasesWaiter(t *testing.T) {
	// One caller occupies the only slot; a second caller blocked on slot
	// acquisition must return promptly when its own context is
	// cancelled.
	r := NewRunner(1)
	hold := make(chan struct{})
	started := make(chan struct{})
	go r.ForEach(context.Background(), 1, func(ctx context.Context, i int) error {
		close(started)
		<-hold
		return nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- r.ForEach(ctx, 5, func(ctx context.Context, i int) error { return nil })
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller stayed blocked on a busy Runner")
	}
	close(hold)
}

func TestRunnerPropagatesErrorAndPanic(t *testing.T) {
	r := NewRunner(2)
	boom := errors.New("boom")
	err := r.ForEach(context.Background(), 10, func(ctx context.Context, i int) error {
		if i == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "item 4") {
		t.Fatalf("err = %v", err)
	}
	err = r.ForEach(context.Background(), 4, func(ctx context.Context, i int) error {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic converted to error", err)
	}
	// The Runner must still be usable after failures: every slot was
	// returned.
	var ran atomic.Int64
	if err := r.ForEach(context.Background(), 8, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	}); err != nil || ran.Load() != 8 {
		t.Fatalf("post-failure run: ran=%d err=%v", ran.Load(), err)
	}
}

func TestRunnerCapacityAndInUse(t *testing.T) {
	r := NewRunner(4)
	if r.Capacity() != 4 {
		t.Fatalf("Capacity = %d", r.Capacity())
	}
	if r.InUse() != 0 {
		t.Fatalf("idle InUse = %d", r.InUse())
	}
	if NewRunner(0).Capacity() < 1 {
		t.Fatal("NewRunner(0) should default to GOMAXPROCS")
	}
}
