package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; write exports them
// as Chrome trace-event JSON, which Perfetto loads.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Job ties every span of one job
// together; lane is the worker (or, for a daemon job, the stage) it ran
// on.
type span struct {
	name       string
	job, lane  int
	start, end time.Time
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) span(name string, job, lane int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, job, lane, start, end})
	t.mu.Unlock()
}

// write exports the spans: one complete ("X") event per span, with the
// job as its id, on one track per lane, timed from the earliest span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		f.Close()
		return err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	t.mu.Lock()
	var base time.Time
	for _, s := range t.spans {
		if base.IsZero() || s.start.Before(base) {
			base = s.start
		}
	}
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteString(",")
		}
		err = enc.Encode(map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": s.lane, "id": s.job,
			"ts": us(s.start.Sub(base)), "dur": us(s.end.Sub(s.start)),
			"args": map[string]int{"job": s.job},
		})
		if err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		_, err = bw.WriteString("]}\n")
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
