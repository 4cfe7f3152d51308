package experiment

import (
	"context"
	"fmt"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

// The fault experiments (E15-E17) measure how the paper's algorithms degrade
// when the model's clean assumptions — reliable links, live nodes, no
// external interference — are relaxed through internal/fault. Every fault
// stream is derived from (cfg.Seed, point/trial index) via rng.NewStream, so
// the tables obey the same bit-identical-under--parallel contract as E1-E14.

// E15: broadcast-time degradation under per-step link loss. The randomized
// KP algorithm retries probabilistically forever, so loss costs it a
// graceful slowdown; Select-and-Send's Echo handshakes assume reliable
// delivery and pay much more steeply.
func E15(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Degradation under per-step link loss: KP vs Select-and-Send",
		Columns: []string{"loss", "n", "t_KP", "done_KP", "t_SS", "done_SS"},
		Notes: []string{
			"fault extension: each directed arc independently drops each transmission with prob. `loss`",
			"times are means censored at the step budget; done = fraction of trials completing",
			"randomized retrying degrades smoothly; the deterministic Echo machinery is brittle",
		},
	}
	n := 512
	if cfg.Quick {
		n = 128
	}
	budget := 100 * n
	trials := cfg.trials(5)
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3}
	err := runPoints(ctx, cfg, t, len(losses), func(ctx context.Context, i int) ([][]any, error) {
		loss := losses[i]
		base := cfg.Seed + 15000*uint64(i+1)
		build := func(src *rng.Source) (*graph.Graph, error) {
			return graph.GNPConnected(n, 4.0/float64(n), src), nil
		}
		plan := func(_ int, _ *graph.Graph, fseed uint64) *fault.Plan {
			if loss == 0 {
				return nil
			}
			return &fault.Plan{Seed: fseed, LinkLoss: loss}
		}
		sums, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: base, budget: budget, build: build, plan: plan},
			func() radio.Protocol { return core.New() },
			func() radio.Protocol { return det.SelectAndSend{} })
		if err != nil {
			return nil, fmt.Errorf("E15 loss=%.2f: %w", loss, err)
		}
		kp, ss := sums[0], sums[1]
		return [][]any{{loss, n, kp.time.Mean, kp.done, ss.time.Mean, ss.done}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E16: broadcast-time degradation under adversarial jamming — the Section 3
// adversary made kinetic. n/16 noise devices sit at random nodes and each
// transmits with probability `jam` per step, turning single receptions in
// their shadow into collisions.
func E16(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Degradation under random jammers: KP vs Select-and-Send",
		Columns: []string{"jam", "n", "jammers", "t_KP", "done_KP", "t_SS", "done_SS"},
		Notes: []string{
			"fault extension: n/16 jammer devices at per-trial random hosts; noise reaches the host's out-neighbors",
			"jam noise over a single legitimate transmission is a collision; over silence it is silence",
			"times are means censored at the step budget; done = fraction of trials completing",
		},
	}
	n := 512
	if cfg.Quick {
		n = 128
	}
	budget := 100 * n
	trials := cfg.trials(5)
	jams := []float64{0, 0.2, 0.4, 0.6, 0.8}
	numJam := n / 16
	err := runPoints(ctx, cfg, t, len(jams), func(ctx context.Context, i int) ([][]any, error) {
		jam := jams[i]
		base := cfg.Seed + 16000*uint64(i+1)
		build := func(src *rng.Source) (*graph.Graph, error) {
			return graph.GNPConnected(n, 4.0/float64(n), src), nil
		}
		plan := func(trial int, g *graph.Graph, fseed uint64) *fault.Plan {
			if jam == 0 {
				return nil
			}
			// Sample distinct jammer hosts from [1, n) off a dedicated
			// substream so the host set is a pure function of the indices.
			jsrc := rng.NewStream(base, uint64(9000+trial))
			taken := make([]bool, g.N())
			hosts := make([]int, 0, numJam)
			for len(hosts) < numJam {
				v := 1 + jsrc.Intn(g.N()-1)
				if !taken[v] {
					taken[v] = true
					hosts = append(hosts, v)
				}
			}
			return &fault.Plan{Seed: fseed, Jammers: hosts, JamProb: jam}
		}
		sums, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: base, budget: budget, build: build, plan: plan},
			func() radio.Protocol { return core.New() },
			func() radio.Protocol { return det.SelectAndSend{} })
		if err != nil {
			return nil, fmt.Errorf("E16 jam=%.1f: %w", jam, err)
		}
		kp, ss := sums[0], sums[1]
		return [][]any{{jam, n, numJam, kp.time.Mean, kp.done, ss.time.Mean, ss.done}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E17: crash-tolerance of the DFS token vs Decay flooding. The linear-time
// DFS broadcast of the neighbor-aware model carries its progress in a single
// token: one crash of the holder kills the whole broadcast. Decay has no
// distinguished state — every informed node keeps running the ladder — so
// it routes around crashed nodes and keeps informing whoever is reachable.
func E17(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "Crash-tolerance: DFS token vs Decay flooding",
		Columns: []string{"crash", "n", "inf_DFS", "done_DFS", "inf_Decay", "done_Decay"},
		Notes: []string{
			"fault extension: a `crash` fraction of nodes halts forever at a uniform step in [1, n]",
			"inf_* = mean fraction of nodes informed when the run ends (crashed nodes count as uninformed)",
			"the token is a single point of failure; the memoryless ladder degrades with the crashed fraction only",
		},
	}
	n := 512
	if cfg.Quick {
		n = 128
	}
	budget := 100 * n
	trials := cfg.trials(5)
	crashes := []float64{0, 0.05, 0.1, 0.2, 0.3}
	err := runPoints(ctx, cfg, t, len(crashes), func(ctx context.Context, i int) ([][]any, error) {
		crash := crashes[i]
		base := cfg.Seed + 17000*uint64(i+1)
		build := func(src *rng.Source) (*graph.Graph, error) {
			// Enough redundancy that crashed nodes rarely disconnect the
			// survivors: what stalls must be the algorithm, not the topology.
			return graph.GNPConnected(n, 6.0/float64(n), src), nil
		}
		plan := func(_ int, _ *graph.Graph, fseed uint64) *fault.Plan {
			if crash == 0 {
				return nil
			}
			return &fault.Plan{Seed: fseed, CrashFrac: crash, CrashWindow: n}
		}
		sums, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: base, budget: budget, build: build, plan: plan},
			func() radio.Protocol { return det.DFSNeighborhood{} },
			func() radio.Protocol { return decay.New() })
		if err != nil {
			return nil, fmt.Errorf("E17 crash=%.2f: %w", crash, err)
		}
		dfs, dec := sums[0], sums[1]
		return [][]any{{crash, n, dfs.informed, dfs.done, dec.informed, dec.done}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
