package server

import (
	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/metrics"
)

// serverMetrics wires the daemon's instruments into one registry; the
// /metrics handler renders it in Prometheus text format.
type serverMetrics struct {
	reg *metrics.Registry

	jobsSubmitted *metrics.Counter
	jobsRejected  *metrics.Counter
	jobsDone      *metrics.Counter
	jobsFailed    *metrics.Counter
	jobsCanceled  *metrics.Counter
	jobsQueued    *metrics.Gauge
	jobsRunning   *metrics.Gauge

	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter

	jobsCoalesced *metrics.Counter
	storeHits     *metrics.Counter
	storeErrors   *metrics.Counter

	sessionsDone *metrics.Counter
	jobLatency   *metrics.Histogram
	queueWait    *metrics.Histogram
	httpRequests *metrics.Counter

	jobsByScenario *metrics.CounterVec

	tracedJobs   *metrics.Counter
	traceEvents  *metrics.Counter
	traceDropped *metrics.Counter

	admissionAdmitted *metrics.Counter
	admissionQueued   *metrics.Counter
	admissionRejected *metrics.Counter
}

func newServerMetrics(runner *pool.Runner, c *cache, st *store) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:           reg,
		jobsSubmitted: reg.NewCounter("movrd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs."),
		jobsRejected:  reg.NewCounter("movrd_jobs_rejected_total", "Submissions rejected with 429 because the queue was full."),
		jobsDone:      reg.NewCounter("movrd_jobs_done_total", "Jobs completed successfully (cache hits included)."),
		jobsFailed:    reg.NewCounter("movrd_jobs_failed_total", "Jobs that ended in error."),
		jobsCanceled:  reg.NewCounter("movrd_jobs_canceled_total", "Jobs canceled before completing."),
		jobsQueued:    reg.NewGauge("movrd_jobs_queued", "Jobs waiting in the scheduler queue."),
		jobsRunning:   reg.NewGauge("movrd_jobs_running", "Jobs currently executing."),
		cacheHits:     reg.NewCounter("movrd_cache_hits_total", "Submissions served from the result cache."),
		cacheMisses:   reg.NewCounter("movrd_cache_misses_total", "Submissions that had to run."),
		jobsCoalesced: reg.NewCounter("movrd_jobs_coalesced_total", "Submissions folded onto an identical in-flight job instead of executing."),
		storeHits:     reg.NewCounter("movrd_store_hits_total", "Cache lookups served from the durable on-disk store."),
		storeErrors:   reg.NewCounter("movrd_store_errors_total", "Failed appends to the durable result store, and stored results that failed their check when read."),
		sessionsDone:  reg.NewCounter("movrd_sessions_completed_total", "Fleet sessions completed across all jobs."),
		jobLatency:    reg.NewHistogram("movrd_job_latency_seconds", "Wall-clock latency of executed jobs (cache hits excluded).", metrics.DefaultLatencyBuckets()),
		queueWait:     reg.NewHistogram("movrd_job_queue_wait_seconds", "Time jobs spent queued between submission and execution start (cache hits excluded).", metrics.DefaultLatencyBuckets()),
		httpRequests:  reg.NewCounter("movrd_http_requests_total", "HTTP requests served."),
		jobsByScenario: reg.NewCounterVec("movrd_jobs_by_scenario_total",
			"Admitted jobs by scenario kind (fleet scenario for fleet jobs, job kind otherwise).", "scenario"),
		tracedJobs:   reg.NewCounter("movrd_traced_jobs_total", "Completed jobs that recorded an event trace."),
		traceEvents:  reg.NewCounter("movrd_trace_events_total", "Events captured across all completed traced jobs."),
		traceDropped: reg.NewCounter("movrd_trace_events_dropped_total", "Events lost to per-session ring-buffer overflow across traced jobs."),
		admissionAdmitted: reg.NewCounter("movrd_admission_admitted_total",
			"Venue players admitted by the bay admission controller, summed over submitted venue jobs."),
		admissionQueued: reg.NewCounter("movrd_admission_queued_total",
			"Venue players queued beyond bay capacity, summed over submitted venue jobs."),
		admissionRejected: reg.NewCounter("movrd_admission_rejected_total",
			"Venue players rejected beyond bay capacity, including submissions refused with admission_denied."),
	}
	reg.NewGaugeFunc("movrd_cache_entries", "Entries in the result cache.",
		func() float64 { return float64(c.Len()) })
	if st != nil {
		reg.NewGaugeFunc("movrd_store_entries", "Entries in the durable on-disk result store.",
			func() float64 { return float64(st.Len()) })
	}
	reg.NewGaugeFunc("movrd_cache_hit_ratio", "Cache hits / submissions, 0 before any submission.",
		func() float64 {
			h, ms := float64(m.cacheHits.Value()), float64(m.cacheMisses.Value())
			if h+ms == 0 {
				return 0
			}
			return h / (h + ms)
		})
	reg.NewGaugeFunc("movrd_pool_capacity", "Shared session pool capacity.",
		func() float64 { return float64(runner.Capacity()) })
	reg.NewGaugeFunc("movrd_pool_in_use", "Shared session pool slots executing right now.",
		func() float64 { return float64(runner.InUse()) })
	reg.NewGaugeFunc("movrd_pool_utilization", "Pool slots in use / capacity.",
		func() float64 { return float64(runner.InUse()) / float64(runner.Capacity()) })
	reg.NewGaugeFunc("movrd_job_latency_p50_seconds", "Estimated median executed-job latency.",
		func() float64 { return m.jobLatency.Quantile(50) })
	reg.NewGaugeFunc("movrd_job_latency_p95_seconds", "Estimated p95 executed-job latency.",
		func() float64 { return m.jobLatency.Quantile(95) })
	return m
}
