package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"adhocradio/internal/experiment/pool"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/obs"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
	"adhocradio/internal/stats"
)

// engines pools radio.Runner instances across the trial workers: a worker
// draws an engine, runs one trial, and parks it again, so steady-state
// trials reuse warm scratch instead of reallocating it per radio.Run call.
// Which physical engine serves which trial is scheduling-dependent, but a
// Runner carries no state a Result can observe between runs (pinned by the
// radiotest battery and TestParallelBitIdentical), so tables stay
// bit-identical for every worker count.
var engines = sync.Pool{New: func() any { return radio.NewRunner() }}

// simulate runs one trial through a pooled engine. Every simulation an
// experiment performs goes through here, so this is also where the
// observability layer taps in: the run's counter window drains into
// obs.Default. Counter totals stay identical for every worker count because
// each trial's window is a deterministic function of its inputs and integer
// addition commutes (TestParallelBitIdentical covers the assembled tables,
// TestSimulateFeedsRecorder the tap itself).
func simulate(g *graph.Graph, p radio.Protocol, cfg radio.Config, opt radio.Options) (*radio.Result, error) {
	r := engines.Get().(*radio.Runner)
	before := r.Counters()
	res, err := r.Run(g, p, cfg, opt)
	obs.Default.AddCounters(r.Counters().Diff(before))
	// Park only on normal return: if a protocol panicked, the unwind skips
	// this line and the mid-step engine is dropped for the GC instead of
	// being handed to the next trial.
	engines.Put(r)
	return res, err
}

// trialSpec describes the trials of one measurement point.
type trialSpec struct {
	trials int
	seed   uint64
	// budget is every run's step budget. 0 selects radio's default and
	// makes a step-limited run an error; a positive budget censors a
	// step-limited run at the budget.
	budget int
	// build returns trial i's graph from the stream rng.NewStream(seed, i).
	// A fixed topology is built once by the caller and shared: build
	// ignores the stream and returns it, which is safe because graphs are
	// immutable.
	build func(src *rng.Source) (*graph.Graph, error)
	// plan, if set, returns trial i's fault plan, shared by every protocol
	// of the trial.
	plan func(trial int, g *graph.Graph, fseed uint64) *fault.Plan
}

// protoSummary aggregates one protocol's runs over the trials of a point.
type protoSummary struct {
	time     stats.Summary // broadcast times, censored at the budget
	done     float64       // fraction of trials that completed
	informed float64       // mean informed fraction at the end of the run
}

// runTrials builds each trial's graph once, runs every protocol on it, and
// returns one summary per protocol, in argument order. It is the one place
// that applies the per-trial seed rule of CONTRIBUTING.md: trial i builds
// from rng.NewStream(seed, i), runs each protocol with radio seed
// seed+1000+i, and hands plan the fault seed rng.NewStream(seed, 5000+i).
// Every trial is a pure function of (seed, i) and the summaries accumulate
// in trial order, so they are identical whatever the worker count. Each
// trial's wall time, covering all of its runs, feeds the observability
// recorder; it never touches the summaries. An error other than a censored
// step limit names the protocol that raised it.
func runTrials(ctx context.Context, cfg Config, spec trialSpec, protos ...func() radio.Protocol) ([]protoSummary, error) {
	type run struct {
		time     int
		done     bool
		informed float64
	}
	trials, trialNS, err := pool.CollectMetered(ctx, cfg.workers(), spec.trials, func(_ context.Context, i int) ([]run, error) {
		g, err := spec.build(rng.NewStream(spec.seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		opt := radio.Options{MaxSteps: spec.budget}
		if spec.plan != nil {
			opt.Fault = spec.plan(i, g, rng.NewStream(spec.seed, uint64(5000+i)).Uint64())
		}
		runs := make([]run, len(protos))
		for k, newProto := range protos {
			p := newProto()
			res, err := simulate(g, p, radio.Config{Seed: spec.seed + uint64(1000+i)}, opt)
			if err != nil && (spec.budget == 0 || !errors.Is(err, radio.ErrStepLimit)) {
				return nil, fmt.Errorf("%s trial %d: %w", p.Name(), i, err)
			}
			runs[k] = run{time: spec.budget, done: res.Completed}
			if res.Completed {
				runs[k].time = res.BroadcastTime
			}
			informed := 0
			for _, at := range res.InformedAt {
				if at >= 0 {
					informed++
				}
			}
			runs[k].informed = float64(informed) / float64(g.N())
		}
		return runs, nil
	})
	if err != nil {
		return nil, err
	}
	obs.Default.ObserveTrials(trialNS)
	sums := make([]protoSummary, len(protos))
	times := make([]int, len(trials))
	n := float64(len(trials))
	for k := range sums {
		s := &sums[k]
		for i, runs := range trials {
			times[i] = runs[k].time
			if runs[k].done {
				s.done++
			}
			s.informed += runs[k].informed
		}
		s.time = stats.SummarizeInts(times)
		s.done /= n
		s.informed /= n
	}
	return sums, nil
}
