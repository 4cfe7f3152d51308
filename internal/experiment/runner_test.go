package experiment

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adhocradio/internal/core"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/obs"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

// probe is a protocol whose source either transmits at every step or
// never does. It records the radio seed of every run it is built for.
type probe struct {
	name     string
	transmit bool
	mu       *sync.Mutex
	seeds    *[]uint64
}

func (p probe) Name() string { return p.name }

func (p probe) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	if label == 0 {
		p.mu.Lock()
		*p.seeds = append(*p.seeds, cfg.Seed)
		p.mu.Unlock()
	}
	return probeNode{transmit: p.transmit}
}

type probeNode struct{ transmit bool }

func (n probeNode) Act(int) (bool, any)        { return n.transmit, "m" }
func (n probeNode) Deliver(int, radio.Message) {}

// trialOf recovers the trial index from the topology stream build was
// handed, or -1 when the stream is none of the point's.
func trialOf(seed uint64, trials int, src *rng.Source) int {
	v := src.Uint64()
	for i := 0; i < trials; i++ {
		if rng.NewStream(seed, uint64(i)).Uint64() == v {
			return i
		}
	}
	return -1
}

// TestRunTrialsSeedsAndBuilds: each trial builds its graph once, from
// rng.NewStream(seed, i), whatever the number of protocols; every
// protocol runs trial i with radio seed seed+1000+i; plan gets the fault
// seed rng.NewStream(seed, 5000+i); the summaries come back in argument
// order, censored at the budget.
func TestRunTrialsSeedsAndBuilds(t *testing.T) {
	const seed, trials, budget = 77, 6, 10
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprint("parallel=", par), func(t *testing.T) {
			obs.Default.Take()
			var mu sync.Mutex
			seeds := make([][]uint64, 3)
			protos := make([]func() radio.Protocol, 3)
			for k := range protos {
				p := probe{name: fmt.Sprint("probe", k), transmit: k == 1, mu: &mu, seeds: &seeds[k]}
				protos[k] = func() radio.Protocol { return p }
			}
			var builds atomic.Int64
			built := make([]*graph.Graph, trials)
			spec := trialSpec{trials: trials, seed: seed, budget: budget,
				build: func(src *rng.Source) (*graph.Graph, error) {
					builds.Add(1)
					i := trialOf(seed, trials, src)
					if i < 0 {
						return nil, errors.New("build got a stream of no trial")
					}
					built[i] = graph.Path(2)
					return built[i], nil
				},
				plan: func(i int, g *graph.Graph, fseed uint64) *fault.Plan {
					if g != built[i] {
						t.Errorf("trial %d: plan got another graph than the trial built", i)
					}
					if want := rng.NewStream(seed, uint64(5000+i)).Uint64(); fseed != want {
						t.Errorf("trial %d: fault seed %d, want %d", i, fseed, want)
					}
					return nil
				}}
			sums, err := runTrials(context.Background(), Config{Parallel: par}, spec, protos...)
			if err != nil {
				t.Fatal(err)
			}
			if got := builds.Load(); got != trials {
				t.Errorf("build called %d times for %d trials", got, trials)
			}
			var want []uint64
			for i := 0; i < trials; i++ {
				want = append(want, seed+1000+uint64(i))
			}
			for k, s := range seeds {
				slices.Sort(s)
				if !slices.Equal(s, want) {
					t.Errorf("protocol %d: radio seeds %v, want %v", k, s, want)
				}
			}
			if len(sums) != 3 {
				t.Fatalf("%d summaries for 3 protocols", len(sums))
			}
			for _, k := range []int{0, 2} {
				if s := sums[k]; s.time.Mean != budget || s.time.N != trials || s.done != 0 || s.informed != 0.5 {
					t.Errorf("silent protocol %d: %+v, want time %d, done 0, informed 0.5", k, s, budget)
				}
			}
			if s := sums[1]; s.time.Mean != 1 || s.done != 1 || s.informed != 1 {
				t.Errorf("transmitting protocol: %+v, want time 1, done 1, informed 1", s)
			}
			if _, hist := obs.Default.Take(); hist.Count != trials {
				t.Errorf("%d trial times observed, want one per trial (%d)", hist.Count, trials)
			}
		})
	}
}

// TestRunTrialsErrors: with budget 0 a step-limited run is an error that
// names the protocol; a positive budget censors step limits only, so any
// other failure (here KP on one node) still propagates.
func TestRunTrialsErrors(t *testing.T) {
	var mu sync.Mutex
	var seeds []uint64
	silent := func() radio.Protocol { return probe{name: "silent-probe", mu: &mu, seeds: &seeds} }
	kp := func() radio.Protocol { return core.New() }
	path := func(n int) func(*rng.Source) (*graph.Graph, error) {
		g := graph.Path(n)
		return func(*rng.Source) (*graph.Graph, error) { return g, nil }
	}
	for _, par := range []int{1, 4} {
		cfg := Config{Parallel: par}
		_, err := runTrials(context.Background(), cfg, trialSpec{trials: 3, seed: 1, build: path(2)}, silent)
		if !errors.Is(err, radio.ErrStepLimit) || !strings.Contains(err.Error(), "silent-probe") {
			t.Errorf("parallel=%d budget 0: err = %v, want a step limit naming silent-probe", par, err)
		}
		_, err = runTrials(context.Background(), cfg, trialSpec{trials: 3, seed: 1, budget: 10, build: path(1)}, silent, kp)
		if !errors.Is(err, radio.ErrUnfitProtocol) || !strings.Contains(err.Error(), "kp-optimal") {
			t.Errorf("parallel=%d budget 10: err = %v, want ErrUnfitProtocol naming kp-optimal", par, err)
		}
	}
}
