// Command bpworker serves BarrierPoint study units over HTTP: one process
// in the worker fleet behind a distributed coordinator (bpserved or
// bpexperiments started with -workers). Units — discovery runs,
// collections, validations — are pure functions of their requests, so a
// worker holds no job state: it computes, memoises, and returns
// codec-serialised artifacts.
//
// Pointing the whole fleet (and its coordinator) at one shared -cache-dir
// makes every process's artifacts serve every other's misses, so
// cross-study overlap dedupes fleet-wide; without it each worker builds
// its own cache and studies still complete, at the cost of some repeated
// work.
//
// Usage:
//
//	bpworker -addr :8081 -max-inflight 8 -cache-dir /var/cache/bp
//
//	curl -s localhost:8081/healthz
//	curl -s localhost:8081/metrics        # Prometheus text format
//	curl -s localhost:8081/debug/events   # recent structured events
//
// Diagnostics are structured JSONL events on stderr; -log-level sets the
// minimum severity and GET /debug/events tails the ring of recent events.
//
// -debug-addr serves Go's pprof profiler on a separate address.
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
	"syscall"
	"time"

	"barrierpoint/internal/obs"
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
		addr      = flag.String("addr", ":8081", "listen address")
		inflight  = flag.Int("max-inflight", 0, "concurrent units accepted (0 = GOMAXPROCS); excess requests get 429")
		cache     = flag.Int("cache", 256, "result cache entries")
		cacheMem  = flag.Int64("cache-mem-bytes", 0, "in-memory result cache byte bound (0 = entries only)")
		cacheDir  = flag.String("cache-dir", "", "persistent cache directory, ideally shared with the fleet (empty = memory only)")
		cacheMax  = flag.Int64("cache-max-bytes", 0, "persistent cache size bound in bytes (0 = unbounded)")
		debugAddr = flag.String("debug-addr", "", "optional address serving net/http/pprof at /debug/pprof/ (empty = disabled)")
		logLevel  = flag.String("log-level", "info", "minimum structured-event severity (debug|info|warn|error)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpworker:", err)
		os.Exit(2)
	}
	w, err := service.NewWorker(service.WorkerConfig{
		MaxInflight:   *inflight,
		CacheSize:     *cache,
		CacheBytes:    *cacheMem,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		Log:           obs.NewLogger(os.Stderr, level, 2048),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpworker:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		w.Close()
		fmt.Fprintln(os.Stderr, "bpworker:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bpworker: serving units on %s\n", ln.Addr())
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "bpworker: persistent cache at %s\n", *cacheDir)
	}
	if *debugAddr != "" {
		fmt.Fprintf(os.Stderr, "bpworker: pprof on %s/debug/pprof/\n", *debugAddr)
		obs.ServeDebug(*debugAddr, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bpworker: "+format+"\n", args...)
		})
	}

	srv := &http.Server{Handler: w.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exit := 0
	select {
	case <-ctx.Done():
		// Graceful shutdown: in-flight units drain (their coordinators are
		// waiting on them), then pending cache writes flush to disk.
		fmt.Fprintln(os.Stderr, "bpworker: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "bpworker: shutdown:", err)
			exit = 1
		}
		cancel()
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bpworker:", err)
			exit = 1
		}
	}
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bpworker: closing cache:", err)
		exit = 1
	}
	os.Exit(exit)
}
