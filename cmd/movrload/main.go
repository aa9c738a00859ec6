// Command movrload replays a burst of fleet-job submissions against a
// live movrd and reports submit-to-done latency percentiles — the load
// harness for the daemon's queueing, coalescing, and backpressure
// behaviour. It drives movrd exclusively through the movrclient
// package, so the harness doubles as an end-to-end exercise of the v1
// client idiom.
//
// Usage:
//
//	movrload [flags]
//
// Flags:
//
//	-addr URL        movrd base URL (default http://127.0.0.1:8477)
//	-jobs N          total jobs in the burst (default 32)
//	-concurrency C   parallel submitters (default 8)
//	-scenarios CSV   scenario kinds cycled across jobs (default home,mixed,coex)
//	-sessions N      sessions per job (default 2)
//	-duration-ms N   simulated session length (default 200)
//	-seed N          base seed; job i submits seed N+i (default 1)
//	-agg MODE        aggregation mode: "", exact, or stream
//	-p95-max D       fail (exit 1) if p95 submit-to-done exceeds D, e.g. 30s
//	-assert-backpressure  fail unless the burst drew ≥1 429 queue_full
//
// The process exits 0 on success, 1 on a failed assertion, and 2 on
// usage or transport errors. Every 429 the server answers is retried
// by the client (honoring Retry-After) and counted; with
// -assert-backpressure the burst is expected to overrun the queue at
// least once, proving the daemon sheds load instead of buffering
// without bound.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/movr-sim/movr/internal/movrclient"
	"github.com/movr-sim/movr/internal/stats"
)

// countingTransport tallies 429 responses so the report can show how
// much backpressure the burst drew (the client retries them away).
type countingTransport struct {
	base        http.RoundTripper
	backpressed atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		t.backpressed.Add(1)
	}
	return resp, err
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8477", "movrd base URL")
	jobs := flag.Int("jobs", 32, "total jobs in the burst")
	concurrency := flag.Int("concurrency", 8, "parallel submitters")
	scenarios := flag.String("scenarios", "home,mixed,coex", "scenario kinds cycled across jobs")
	sessions := flag.Int("sessions", 2, "sessions per job")
	durationMS := flag.Int("duration-ms", 200, "simulated session length per job")
	seed := flag.Int("seed", 1, "base seed; job i submits seed+i")
	agg := flag.String("agg", "", `aggregation mode: "", exact, or stream`)
	p95Max := flag.Duration("p95-max", 0, "fail if p95 submit-to-done exceeds this (0 = report only)")
	assertBP := flag.Bool("assert-backpressure", false, "fail unless the burst drew at least one 429")
	flag.Parse()
	if flag.NArg() != 0 || *jobs < 1 || *concurrency < 1 {
		fmt.Fprintf(os.Stderr, "movrload: bad arguments\n")
		flag.Usage()
		os.Exit(2)
	}

	kinds := strings.Split(*scenarios, ",")
	transport := &countingTransport{base: http.DefaultTransport}
	client := movrclient.New(*addr)
	client.HTTPClient = &http.Client{Transport: transport}
	client.MaxRetries = 16 // ride out sustained backpressure

	ctx := context.Background()
	var (
		mu        sync.Mutex
		latencies []float64 // submit-to-done, ns
		cacheHits int
		failures  []string
	)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fleet := map[string]any{
					"scenario":    kinds[i%len(kinds)],
					"sessions":    *sessions,
					"seed":        *seed + i,
					"duration_ms": *durationMS,
				}
				if *agg != "" {
					fleet["agg"] = *agg
				}
				spec := map[string]any{"kind": "fleet", "fleet": fleet}
				t0 := time.Now()
				job, err := client.SubmitWait(ctx, spec)
				elapsed := time.Since(t0)
				mu.Lock()
				switch {
				case err != nil:
					failures = append(failures, fmt.Sprintf("job %d: %v", i, err))
				case job.State != "done":
					failures = append(failures, fmt.Sprintf("job %d: state %s: %s", i, job.State, job.Error))
				default:
					latencies = append(latencies, float64(elapsed))
					if job.Cached {
						cacheHits++
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "movrload: %s\n", f)
	}
	if len(latencies) == 0 {
		fmt.Fprintf(os.Stderr, "movrload: no job completed\n")
		os.Exit(2)
	}
	sort.Float64s(latencies)
	p50 := time.Duration(stats.PercentileSorted(latencies, 50))
	p95 := time.Duration(stats.PercentileSorted(latencies, 95))
	backpressed := transport.backpressed.Load()
	fmt.Printf("movrload: %d/%d jobs done in %v (%.1f jobs/s)\n",
		len(latencies), *jobs, wall.Round(time.Millisecond),
		float64(len(latencies))/wall.Seconds())
	fmt.Printf("movrload: submit-to-done p50=%v p95=%v max=%v\n",
		p50.Round(time.Millisecond), p95.Round(time.Millisecond),
		time.Duration(latencies[len(latencies)-1]).Round(time.Millisecond))
	fmt.Printf("movrload: backpressure_429=%d cache_hits=%d\n", backpressed, cacheHits)

	exit := 0
	if len(failures) > 0 {
		exit = 1
	}
	if *p95Max > 0 && p95 > *p95Max {
		fmt.Fprintf(os.Stderr, "movrload: FAIL p95 %v exceeds -p95-max %v\n", p95, *p95Max)
		exit = 1
	}
	if *assertBP && backpressed == 0 {
		fmt.Fprintf(os.Stderr, "movrload: FAIL expected 429 backpressure, saw none\n")
		exit = 1
	}
	os.Exit(exit)
}
