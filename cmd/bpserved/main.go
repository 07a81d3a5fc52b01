// Command bpserved serves the BarrierPoint study-execution subsystem over
// HTTP: studies are submitted as JSON, run on the concurrent scheduler
// with result caching, and polled (or long-polled with ?wait=) until
// their report is ready.
//
// With -workers=host:port,... the server runs distributed: study units
// are dispatched to a fleet of bpworker processes, with retry/backoff on
// worker failure and local fallback when no worker is healthy. Sharing
// one -cache-dir between the server and the fleet dedupes artifacts
// fleet-wide.
//
// With -cache-dir the result cache is backed by a persistent
// content-addressed store: computed studies survive restarts, and batch
// runs (bpexperiments -cache-dir) pointed at the same directory share the
// server's work. -cache-max-bytes bounds the store on disk; least
// recently used artifacts are evicted first. On SIGINT/SIGTERM the server
// shuts down gracefully: in-flight HTTP requests drain, running studies
// are cancelled at their next unit boundary, and pending cache writes are
// flushed to disk before the process exits.
//
// Usage:
//
//	bpserved -addr :8080 -unit-workers 8 -executors 2 -cache 256 -priority 0 \
//	         -cache-dir /var/cache/bp -cache-max-bytes 1073741824
//	bpserved -addr :8080 -workers 10.0.0.2:8081,10.0.0.3:8081 -cache-dir /mnt/bp
//
//	curl -s -X POST localhost:8080/studies \
//	     -d '{"app":"MCB","threads":8,"runs":10,"reps":20,"seed":2017,"priority":5}'
//	curl -s -X POST localhost:8080/studies:batch \
//	     -d '{"studies":[{"app":"MCB","threads":2},{"app":"MCB","threads":8}]}'
//	curl -s localhost:8080/sweeps/sw-000001             # per-study sweep progress
//	curl -s -X DELETE localhost:8080/sweeps/sw-000001   # cancel, cascades to members
//	curl -s localhost:8080/studies/s-000001             # live progress while running
//	curl -s 'localhost:8080/studies/s-000001?wait=30s'  # long-poll for the next change
//	curl -s -X DELETE localhost:8080/studies/s-000001   # cancel
//	curl -s localhost:8080/studies/s-000001/report
//	curl -s localhost:8080/studies/s-000001/trace      # per-unit span tree
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics                      # Prometheus text format
//	curl -s 'localhost:8080/debug/events?job=s-000001'  # recent structured events
//
// Diagnostics are structured JSONL events on stderr (one JSON object per
// line, with job/span correlation IDs); -log-level sets the minimum
// severity and GET /debug/events tails the most recent events without
// log-file access.
//
// -debug-addr serves Go's pprof profiler on a separate address
// (e.g. -debug-addr localhost:6060, then `go tool pprof
// http://localhost:6060/debug/pprof/profile`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"barrierpoint/internal/obs"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/service"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot hold connections
// open indefinitely. Long-polls are unaffected: they wait after the
// headers are read.
const readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit between
// requests. It is longer than the default client transport's 90 s idle
// timeout, so the client side normally closes an idle connection first.
const idleTimeout = 2 * time.Minute

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.String("workers", "", "comma-separated bpworker addresses (host:port,...) for distributed execution (empty = local)")
		winflight   = flag.Int("worker-inflight", 0, "concurrent units dispatched per remote worker (0 = default 4)")
		unitWorkers = flag.Int("unit-workers", 0, "per-study unit concurrency (0 = GOMAXPROCS)")
		executors   = flag.Int("executors", 2, "studies running concurrently")
		queue       = flag.Int("queue", 64, "submission queue depth")
		cacheSize   = flag.Int("cache", 256, "result cache entries")
		cacheMem    = flag.Int64("cache-mem-bytes", 0, "in-memory result cache byte bound (0 = entries only)")
		cacheDir    = flag.String("cache-dir", "", "persistent cache directory (empty = memory only)")
		cacheMax    = flag.Int64("cache-max-bytes", 0, "persistent cache size bound in bytes (0 = unbounded)")
		priority    = flag.Int("priority", 0,
			fmt.Sprintf("default priority band for submissions that omit one (higher starts first, ±%d)", service.MaxPriority))
		maxSweep  = flag.Int("max-sweep-studies", 0, "member studies allowed per POST /studies:batch sweep (0 = default 64)")
		debugAddr = flag.String("debug-addr", "", "optional address serving net/http/pprof at /debug/pprof/ (empty = disabled)")
		logLevel  = flag.String("log-level", "info", "minimum structured-event severity (debug|info|warn|error)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpserved:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, 2048)

	workerURLs, err := sched.ParseWorkerList(*workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpserved: -workers takes bpworker addresses (host:port,...); unit concurrency is -unit-workers: %v\n", err)
		os.Exit(2)
	}
	svc, err := service.New(service.Config{
		Workers:         *unitWorkers,
		Executors:       *executors,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		CacheBytes:      *cacheMem,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheMax,
		DefaultPriority: *priority,
		WorkerURLs:      workerURLs,
		WorkerInflight:  *winflight,
		MaxSweepStudies: *maxSweep,
		Log:             logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpserved:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		fmt.Fprintln(os.Stderr, "bpserved:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bpserved: listening on %s\n", ln.Addr())
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "bpserved: persistent cache at %s\n", *cacheDir)
	}
	if len(workerURLs) > 0 {
		fmt.Fprintf(os.Stderr, "bpserved: distributing units across %d workers: %s\n",
			len(workerURLs), strings.Join(workerURLs, ", "))
	}
	if *debugAddr != "" {
		fmt.Fprintf(os.Stderr, "bpserved: pprof on %s/debug/pprof/\n", *debugAddr)
		obs.ServeDebug(*debugAddr, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bpserved: "+format+"\n", args...)
		})
	}

	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exit := 0
	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting and drain in-flight HTTP
		// requests first, then stop the service — which cancels running
		// studies and flushes pending cache writes to disk.
		fmt.Fprintln(os.Stderr, "bpserved: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "bpserved: shutdown:", err)
			exit = 1
		}
		cancel()
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bpserved:", err)
			exit = 1
		}
	}
	svc.Close()
	os.Exit(exit)
}
