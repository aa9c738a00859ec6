// Command movrd serves the MoVR simulator as a long-lived HTTP/JSON
// daemon: submit simulation jobs, stream their progress, and scrape
// metrics — simulation as a service instead of one-shot CLI runs.
//
// Usage:
//
//	movrd [flags]
//
// Flags:
//
//	-addr A      listen address (default 127.0.0.1:8477; use :0 to pick a free port)
//	-workers N   shared session-pool capacity all jobs multiplex onto (0 = all cores)
//	-max-jobs N  jobs executing concurrently (default 4)
//	-queue N     queued-job bound; full queue answers 429 (default 16)
//	-cache N     result-cache entries (default 256)
//	-cache-dir D durable result-store directory; completed results are
//	             fsync'd to D/results.log and survive restarts (empty =
//	             memory-only cache)
//	-retain N    finished-job records kept for GET /v1/jobs (default 1024)
//	-debug-addr A  optional second listener with net/http/pprof under
//	               /debug/pprof/ and expvar under /debug/vars; off when
//	               empty (the default), so the job API never exposes
//	               profiling handlers
//
// API:
//
//	POST   /v1/jobs             submit a job spec (?wait=1 blocks until done)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status + result
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events per-session progress (SSE)
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text format
//
// Example:
//
//	curl -s localhost:8477/v1/jobs?wait=1 -d \
//	  '{"kind":"fleet","fleet":{"scenario":"mixed","sessions":24,"seed":1}}'
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/movr-sim/movr/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8477", "listen address (use :0 to pick a free port)")
	workers := flag.Int("workers", 0, "shared session-pool capacity (0 = all cores)")
	maxJobs := flag.Int("max-jobs", 0, "concurrently executing jobs (0 = default 4)")
	queue := flag.Int("queue", 0, "queued-job bound (0 = default 16)")
	cacheN := flag.Int("cache", 0, "result-cache entries (0 = default 256)")
	cacheDir := flag.String("cache-dir", "", "durable result-store directory (empty = memory-only cache)")
	retain := flag.Int("retain", 0, "finished-job records kept (0 = default 1024)")
	debugAddr := flag.String("debug-addr", "", "pprof/expvar listen address (empty = disabled)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "movrd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	srv, err := server.New(server.Options{
		Workers:      *workers,
		MaxJobs:      *maxJobs,
		QueueDepth:   *queue,
		CacheEntries: *cacheN,
		CacheDir:     *cacheDir,
		RetainJobs:   *retain,
	})
	if err != nil {
		log.Fatalf("movrd: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("movrd: listen %s: %v", *addr, err)
	}
	httpSrv := newHTTPServer(srv)

	// The fixed "listening on" line is load-bearing: the smoke script
	// (and anyone starting movrd with -addr :0) reads the actual
	// address from it.
	log.Printf("movrd: listening on %s", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	// Debug listener: a separate socket so profiling handlers are never
	// reachable through the job API address. Uses an explicit mux —
	// importing net/http/pprof for its DefaultServeMux side effect would
	// silently expose pprof on any future handler that reuses it.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("movrd: debug listen %s: %v", *debugAddr, err)
		}
		debugSrv = &http.Server{Handler: dmux}
		log.Printf("movrd: debug listening on %s", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("movrd: debug serve: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("movrd: %v — shutting down", s)
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("movrd: serve: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("movrd: shutdown: %v", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	srv.Close()
}

// newHTTPServer wraps the job API in an http.Server whose read-side
// timeouts bound what one slow or stalled client can hold: a connection
// that has not sent its whole request header within ReadHeaderTimeout,
// or its body within ReadTimeout, is closed, and so is a keep-alive
// connection idle for IdleTimeout. WriteTimeout stays zero because SSE
// /events streams and ?wait=1 submissions hold a response open for as
// long as the job runs.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}
