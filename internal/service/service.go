// Package service implements radiosd's serving layer: a concurrent
// simulation service wrapping the adhocradio engine behind a small HTTP/JSON
// API. The pieces fit together as a classic bounded pipeline:
//
//	handler → bounded queue → worker pool → per-worker radio.Runner
//	                    ↘ LRU compiled-graph cache (shared, read-only graphs)
//
// Admission is the only place load is shed: when the queue is full (or the
// service is draining) the handler answers 503 with Retry-After, and every
// job past that point runs to completion — graceful shutdown closes the
// queue, finishes in-flight work, and reports a final observability
// snapshot with zero dropped jobs. Each worker owns one radio.Runner and
// one reused Result, so steady-state simulation allocates nothing beyond
// protocol node programs; topologies come from the compiled-graph cache and
// are shared read-only across workers.
//
// Determinism is load-bearing: a response is a pure function of the request
// (spec canonical key, protocol, seed, step budget), never of cache state,
// queue order, or worker identity. The end-to-end test gates byte-identity
// against a direct library call with the same inputs.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/graph"
	"adhocradio/internal/obs"
	"adhocradio/internal/radio"
)

// Admission-control sentinels; handlers map both to 503 + Retry-After.
var (
	// ErrQueueFull is returned by enqueue when the bounded job queue has no
	// free slot. The client should back off and retry.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining is returned by enqueue once graceful shutdown has begun:
	// no new work is accepted, in-flight work runs to completion.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownProtocol is wrapped by protocolFor for unrecognized
	// protocol names; handlers map it to 400.
	ErrUnknownProtocol = errors.New("service: unknown protocol")
)

// Config sizes the service. Zero values select sensible defaults.
type Config struct {
	// Workers is the number of simulation workers (default 2). Each owns a
	// private radio.Runner, so Workers bounds both CPU use and peak scratch
	// memory.
	Workers int
	// QueueCap bounds the job queue (default 16). A full queue rejects
	// with 503 instead of queueing unboundedly — backpressure, not OOM.
	QueueCap int
	// CacheCap bounds the compiled-graph LRU cache (default 32 entries).
	CacheCap int
	// MaxTimeout clamps per-request deadlines (default 30s). Requests
	// asking for more get this much; requests asking for nothing get it
	// too.
	MaxTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueCap < 1 {
		c.QueueCap = 16
	}
	if c.CacheCap < 1 {
		c.CacheCap = 32
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	return c
}

// job is one accepted simulation. The handler writes the inputs before it
// enqueues the job; the worker writes the outputs and then closes done, and
// the handler reads them only after done is closed, so no lock is needed.
type job struct {
	ctx             context.Context // the request's deadline
	spec            graph.Spec      // normalized
	specKey         string          // spec.Canonical()
	protocol        string
	seed            uint64
	maxSteps        int
	includeInformed bool

	done chan struct{}

	resp     *SimulateResponse
	cacheHit bool
	err      error
}

// Service is the long-running simulation service. Create with New, launch
// workers with Start, shut down with Drain.
type Service struct {
	cfg   Config
	cache *graphCache

	mu        sync.RWMutex // guards accepting and the queue's open/closed state
	accepting bool
	queue     chan *job

	wg sync.WaitGroup

	accepted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64

	// testHookJobStart, when set before Start, is called by a worker right
	// after it dequeues a job and before it runs it. Tests use it to park a
	// worker deterministically (fill the queue, then assert backpressure or
	// drain behaviour) without sleeping.
	testHookJobStart func(*job)
}

// New builds a stopped service; call Start to launch the workers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:   cfg,
		cache: newGraphCache(cfg.CacheCap),
		queue: make(chan *job, cfg.QueueCap),
	}
}

// Start opens admission and launches the worker pool.
func (s *Service) Start() {
	s.mu.Lock()
	s.accepting = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// enqueue admits a job or sheds it. The read lock excludes Drain's
// close(queue), so the non-blocking send can never hit a closed channel.
func (s *Service) enqueue(j *job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.accepting {
		s.rejected.Add(1)
		return ErrDraining
	}
	select {
	case s.queue <- j:
		s.accepted.Add(1)
		return nil
	default:
		s.rejected.Add(1)
		return ErrQueueFull
	}
}

// worker drains the queue until Drain closes it. Each worker owns one
// Runner and one Result for its lifetime: the engine scratch and the result
// slices are reused across every job the worker executes.
func (s *Service) worker() {
	defer s.wg.Done()
	runner := radio.NewRunner()
	var res radio.Result
	for j := range s.queue {
		if s.testHookJobStart != nil {
			s.testHookJobStart(j)
		}
		if j.err = s.runSimulate(j, runner, &res); j.err != nil {
			s.failed.Add(1)
		} else {
			s.completed.Add(1)
		}
		close(j.done)
	}
}

// runSimulate executes one simulation job on the worker's engine. The
// topology comes from the compiled-graph cache; the response is assembled
// from the reused Result before the next job overwrites it. The per-run
// counter window feeds the process-wide obs recorder, mirroring what the
// experiment engine does.
func (s *Service) runSimulate(j *job, runner *radio.Runner, res *radio.Result) error {
	g, hit, err := s.cache.get(j.specKey, j.spec)
	if err != nil {
		return err
	}
	j.cacheHit = hit
	proto, err := protocolFor(j.protocol)
	if err != nil {
		return err
	}
	cfg := radio.Config{N: g.N(), Seed: j.seed}
	before := runner.Counters()
	runErr := runner.RunIntoContext(j.ctx, res, g, proto, cfg, radio.Options{MaxSteps: j.maxSteps})
	obs.Default.AddCounters(runner.Counters().Diff(before))
	if runErr != nil && !errors.Is(runErr, radio.ErrStepLimit) {
		// Cancellation, a protocol unfit for the topology (such as KP on
		// one node), contract violations, ...: no usable result.
		return runErr
	}
	// A step-limited run still carries a meaningful partial Result; the
	// response reports it with completed=false rather than failing the job.
	resp := &SimulateResponse{
		Topology: j.specKey,
		Protocol: j.protocol,
		Seed:     j.seed,
		Result: SimulateResult{
			Completed:      res.Completed,
			BroadcastTime:  res.BroadcastTime,
			StepsSimulated: res.StepsSimulated,
			Transmissions:  res.Transmissions,
			Receptions:     res.Receptions,
			Collisions:     res.Collisions,
		},
		Counters: runner.Counters().Diff(before),
	}
	if j.includeInformed {
		resp.Result.InformedAt = append([]int(nil), res.InformedAt...)
	}
	j.resp = resp
	return nil
}

// DrainReport summarizes a graceful shutdown: every accepted job completed
// or failed (Active == 0), plus the final observability snapshot. Rejected
// requests were never accepted and count in neither.
type DrainReport struct {
	Completed int64        `json:"completed"`
	Failed    int64        `json:"failed"`
	Rejected  int64        `json:"rejected"`
	Active    int          `json:"active"`
	CacheHits int64        `json:"cache_hits"`
	CacheMiss int64        `json:"cache_misses"`
	Counters  obs.Counters `json:"counters"`
}

// Drain gracefully shuts the service down: stop accepting, let the workers
// finish every queued and in-flight job, then report. Safe to call more
// than once; later calls just wait and re-report.
func (s *Service) Drain() DrainReport {
	s.mu.Lock()
	if s.accepting {
		s.accepting = false
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	completed, failed := s.completed.Load(), s.failed.Load()
	c, _ := obs.Default.Snapshot()
	return DrainReport{
		Completed: completed,
		Failed:    failed,
		Rejected:  s.rejected.Load(),
		Active:    int(s.accepted.Load() - completed - failed),
		CacheHits: s.cache.hits.Load(),
		CacheMiss: s.cache.misses.Load(),
		Counters:  c,
	}
}

// draining reports whether admission is closed.
func (s *Service) draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.accepting
}

// protocolFor maps the wire protocol name to a fresh protocol instance,
// using the same names as cmd/radiosim's -proto flag. The error wraps
// ErrUnknownProtocol.
func protocolFor(name string) (radio.Protocol, error) {
	switch name {
	case "kp":
		return core.New(), nil
	case "kp-paper":
		return core.NewPaperExact(), nil
	case "bgi":
		return decay.New(), nil
	case "rr":
		return det.RoundRobin{}, nil
	case "ss":
		return det.SelectAndSend{}, nil
	case "cl":
		return det.CompleteLayered{}, nil
	case "inter":
		return det.NewInterleaved(det.RoundRobin{}, det.SelectAndSend{}), nil
	default:
		return nil, fmt.Errorf("%w %q (known: kp, kp-paper, bgi, rr, ss, cl, inter)", ErrUnknownProtocol, name)
	}
}
