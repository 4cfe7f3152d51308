// Command radiosd is the long-running simulation service: the adhocradio
// engine behind a small HTTP/JSON API, for driving parameter sweeps from
// notebooks or sharing one warm simulation host between users. The
// experiment tables E1–E17 come from cmd/radiobench, not from here.
//
//	radiosd -addr :8080 -workers 4
//
// Endpoints:
//
//	POST /v1/simulate   run one broadcast simulation (body at most 1 MiB)
//	GET  /healthz       liveness ("ok", "draining")
//	GET  /metrics       Prometheus text format
//
// Repeated requests for the same topology spec share one compiled graph via
// an LRU cache; responses are deterministic functions of the request, so a
// cache hit can never change a result. A full job queue answers 503 with
// Retry-After (backpressure, not unbounded buffering). On SIGINT/SIGTERM
// the daemon stops accepting, finishes every accepted job, prints a final
// drain report with the observability snapshot, and exits 0 only if no job
// was left behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adhocradio/internal/service"
)

type options struct {
	addr       string
	workers    int
	queueCap   int
	cacheCap   int
	maxTimeout time.Duration
	drainGrace time.Duration
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	if err := runWith(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radiosd:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("radiosd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&o.workers, "workers", 2, "simulation worker goroutines")
	fs.IntVar(&o.queueCap, "queue", 16, "job queue capacity (full queue answers 503)")
	fs.IntVar(&o.cacheCap, "cache", 32, "compiled-graph cache entries")
	fs.DurationVar(&o.maxTimeout, "max-timeout", 30*time.Second, "per-request deadline ceiling")
	fs.DurationVar(&o.drainGrace, "drain-grace", 2*time.Minute, "graceful shutdown budget for in-flight HTTP requests")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, nil
}

// runWith serves until ctx is cancelled, then drains gracefully. All
// diagnostics go to out so tests can drive a daemon in-process or as a
// child and assert on the drain report.
func runWith(ctx context.Context, o options, out io.Writer) error {
	svc := service.New(service.Config{
		Workers:    o.workers,
		QueueCap:   o.queueCap,
		CacheCap:   o.cacheCap,
		MaxTimeout: o.maxTimeout,
	})
	svc.Start()
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		svc.Drain()
		return err
	}
	fmt.Fprintf(out, "radiosd: listening on http://%s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), o.workers, o.queueCap, o.cacheCap)
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		svc.Drain()
		return err
	case <-ctx.Done():
	}

	// Graceful drain, in dependency order: first let in-flight HTTP
	// requests finish (each simulate handler waits for its job), then let
	// the workers finish the jobs whose requests timed out.
	fmt.Fprintln(out, "radiosd: shutdown requested; draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		svc.Drain()
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		svc.Drain()
		return err
	}
	rep := svc.Drain()
	fmt.Fprintf(out, "radiosd: drained: completed=%d failed=%d rejected=%d active=%d cache_hits=%d cache_misses=%d\n",
		rep.Completed, rep.Failed, rep.Rejected, rep.Active, rep.CacheHits, rep.CacheMiss)
	fmt.Fprintf(out, "radiosd: engine counters: steps=%d transmissions=%d receptions=%d collisions=%d\n",
		rep.Counters.Steps, rep.Counters.Transmissions, rep.Counters.Receptions, rep.Counters.Collisions)
	if rep.Active != 0 {
		return fmt.Errorf("drain left %d accepted jobs unfinished", rep.Active)
	}
	return nil
}
