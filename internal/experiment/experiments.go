package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/experiment/pool"
	"adhocradio/internal/graph"
	"adhocradio/internal/lowerbound"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
	"adhocradio/internal/stats"
	"adhocradio/internal/trace"
)

// Config scopes an experiment run.
type Config struct {
	// Seed drives all randomness (topologies and protocols).
	Seed uint64
	// Trials is the number of repetitions per randomized measurement
	// point; 0 selects a per-experiment default.
	Trials int
	// Quick shrinks problem sizes so the whole suite runs in seconds
	// (used by tests); the full sizes are used by cmd/radiobench and the
	// benchmarks.
	Quick bool
	// Parallel is the number of worker goroutines used for independent
	// measurement points and trials; 0 or 1 runs sequentially. Every
	// random stream is derived from (Seed, point/trial index), so the
	// resulting tables are bit-identical for every Parallel value — the
	// worker count may only change wall-clock time, never bytes.
	Parallel int
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick && def > 3 {
		return 3
	}
	return def
}

// workers resolves the Parallel setting for the pool; the zero value keeps
// the historical sequential behaviour.
func (c Config) workers() int {
	if c.Parallel > 1 {
		return c.Parallel
	}
	return 1
}

// Experiment is a registered reproduction experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, cfg Config) (*Table, error)
}

// Registry lists all experiments in order.
func Registry() []Experiment {
	return []Experiment{
		{"E1", "Randomized broadcasting at large radius: KP vs BGI (Thm 1)", E1},
		{"E2", "Randomized broadcasting at small radius: log²n regime (Thm 1)", E2},
		{"E3", "Complete layered networks are hardest for randomized broadcast", E3},
		{"E4", "Adversarial deterministic lower bound (Thm 2, Figs. 1-2)", E4},
		{"E5", "Select-and-Send runs in O(n log n) (Thm 3)", E5},
		{"E6", "Complete-Layered runs in O(n + D log n), refuting Ω(n log D) (Thm 4)", E6},
		{"E7", "Round-robin vs Select-and-Send vs interleaving crossover", E7},
		{"E8", "Ablation: the universal-sequence step of Stage(D,i)", E8},
		{"E9", "Extension: message complexity (energy) of every algorithm", E9},
		{"E10", "Extension: the price of not knowing the neighborhood ([3] model)", E10},
		{"E11", "Extension: the §1.1 model landscape (spontaneous transmissions)", E11},
		{"E12", "Extension: directed vs undirected layered hardness (§4.3 contrast)", E12},
		{"E13", "Randomized broadcasting on directed networks (§2 generality)", E13},
		{"E14", "Fidelity ablation: the paper's constants vs simulation constants", E14},
		{"E15", "Fault extension: broadcast-time degradation under link loss", E15},
		{"E16", "Fault extension: broadcast-time degradation under jamming", E16},
		{"E17", "Fault extension: crash-tolerance of the DFS token vs Decay", E17},
	}
}

// ErrUnknownExperiment is the sentinel wrapped by ByID (and everything
// delegating to it) when no registered experiment has the requested ID.
// Callers discriminate with errors.Is instead of matching message text.
var ErrUnknownExperiment = errors.New("experiment: unknown id")

// ByID returns the experiment with the given ID. The error wraps
// ErrUnknownExperiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w %q (registered: E1..E%d)", ErrUnknownExperiment, id, len(Registry()))
}

// runPoints evaluates n independent measurement points through the worker
// pool and appends their rows to t in point order. Each point must be a
// pure function of its index — it derives every random stream from
// (cfg.Seed, a stable identifier) and touches no state shared with other
// points — which is what makes the assembled table bit-identical for every
// cfg.Parallel value. This is the seed-derivation rule of CONTRIBUTING.md;
// new experiments must follow it.
func runPoints(ctx context.Context, cfg Config, t *Table, n int,
	point func(ctx context.Context, i int) ([][]any, error)) error {
	groups, err := pool.Collect(ctx, cfg.workers(), n, point)
	if err != nil {
		return err
	}
	for _, rows := range groups {
		for _, cells := range rows {
			t.AddRow(cells...)
		}
	}
	return nil
}

// E1: at D ∈ Θ(n/polylog n) the paper's algorithm wins over BGI by a factor
// approaching log n / log(n/D).
func E1(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "KP vs BGI on random layered networks, D = n/16",
		Columns: []string{"n", "D", "t_KP_knownD", "t_KP", "t_BGI", "speedup_knownD", "speedup", "model_speedup"},
		Notes: []string{
			"paper: KP = O(D log(n/D) + log²n) beats BGI = O(D log n + log²n) for D ∈ Θ(n/polylog n)",
			"t_KP_knownD runs procedure Randomized-Broadcasting(D) itself (what Lemma 6 analyzes);",
			"t_KP adds the doubling wrapper, whose early phases use longer stages — at finite n that",
			"costs an additive log(2c) per stage, so its speedup converges to the model only as n grows",
			"model_speedup = ModelBGI/ModelKP; speedup_knownD should track it",
		},
	}
	sizes := []int{1024, 2048, 4096}
	if cfg.Quick {
		sizes = []int{256, 512}
	}
	trials := cfg.trials(5)
	err := runPoints(ctx, cfg, t, len(sizes), func(ctx context.Context, i int) ([][]any, error) {
		n := sizes[i]
		d := n / 16
		sums, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: cfg.Seed + uint64(n),
			build: func(src *rng.Source) (*graph.Graph, error) {
				return graph.RandomLayered(n, d, 0.3, src)
			}},
			func() radio.Protocol { return core.NewWithParams(core.Params{KnownRadius: d}) },
			func() radio.Protocol { return core.New() },
			func() radio.Protocol { return decay.New() })
		if err != nil {
			return nil, fmt.Errorf("E1 n=%d: %w", n, err)
		}
		known, kp, bgi := sums[0].time, sums[1].time, sums[2].time
		model := stats.ModelBGI(float64(n), float64(d)) / stats.ModelKP(float64(n), float64(d))
		return [][]any{{n, d, known.Mean, kp.Mean, bgi.Mean,
			bgi.Mean / known.Mean, bgi.Mean / kp.Mean, model}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E2: at constant D both algorithms are dominated by the log²n term and
// should be close.
func E2(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "KP vs BGI on complete layered networks, small D",
		Columns: []string{"n", "D", "t_KP", "t_BGI", "ratio"},
		Notes: []string{
			"paper: for small D both bounds collapse to Θ(log²n + D log n); expect ratio near 1",
		},
	}
	sizes := []int{1024, 4096}
	if cfg.Quick {
		sizes = []int{256}
	}
	trials := cfg.trials(5)
	type nd struct{ n, d int }
	var points []nd
	for _, n := range sizes {
		for _, d := range []int{2, 4, 8} {
			points = append(points, nd{n, d})
		}
	}
	err := runPoints(ctx, cfg, t, len(points), func(ctx context.Context, i int) ([][]any, error) {
		n, d := points[i].n, points[i].d
		g, err := graph.UniformCompleteLayered(n, d)
		if err != nil {
			return nil, fmt.Errorf("E2 n=%d d=%d: %w", n, d, err)
		}
		sums, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: cfg.Seed + uint64(n*d),
			build: func(*rng.Source) (*graph.Graph, error) { return g, nil }},
			func() radio.Protocol { return core.New() },
			func() radio.Protocol { return decay.New() })
		if err != nil {
			return nil, fmt.Errorf("E2 n=%d d=%d: %w", n, d, err)
		}
		kp, bgi := sums[0].time, sums[1].time
		return [][]any{{n, d, kp.Mean, bgi.Mean, bgi.Mean / kp.Mean}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E3: Kushilevitz–Mansour's Ω(D log(n/D)) is proved on complete layered
// networks; KP should be no faster there than on random layered networks of
// the same n, D.
func E3(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "KP on complete layered vs random layered networks",
		Columns: []string{"n", "D", "t_complete", "t_random", "hardness"},
		Notes: []string{
			"paper (§1.2): complete layered networks are the most difficult for randomized broadcasting",
			"hardness = t_complete/t_random; expect >= ~1",
		},
	}
	n := 2048
	if cfg.Quick {
		n = 256
	}
	trials := cfg.trials(5)
	var ds []int
	for _, d := range []int{8, 32, 128} {
		if d < n/4 {
			ds = append(ds, d)
		}
	}
	err := runPoints(ctx, cfg, t, len(ds), func(ctx context.Context, i int) ([][]any, error) {
		d := ds[i]
		g, err := graph.UniformCompleteLayered(n, d)
		if err != nil {
			return nil, fmt.Errorf("E3 complete d=%d: %w", d, err)
		}
		kp := func() radio.Protocol { return core.New() }
		complete, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: cfg.Seed + uint64(d),
			build: func(*rng.Source) (*graph.Graph, error) { return g, nil }}, kp)
		if err != nil {
			return nil, fmt.Errorf("E3 complete d=%d: %w", d, err)
		}
		random, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: cfg.Seed + uint64(d),
			build: func(src *rng.Source) (*graph.Graph, error) {
				return graph.RandomLayered(n, d, 0.2, src)
			}}, kp)
		if err != nil {
			return nil, fmt.Errorf("E3 random d=%d: %w", d, err)
		}
		tc, tr := complete[0].time.Mean, random[0].time.Mean
		return [][]any{{n, d, tc, tr, tc / tr}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E4: the Section 3 adversary. For each protocol we build G_A, verify
// Lemma 9 (abstract = real histories), and report the measured time next
// to the guaranteed bound and the Thm 2 model curve.
func E4(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Adversarial networks G_A (jamming + non-selective witness)",
		Columns: []string{"protocol", "n", "D", "k", "lmax", "bound", "t_adv", "t/bound", "model_LB"},
		Notes: []string{
			"paper (Thm 2): every deterministic algorithm needs Ω(n log n / log(n/D)) on some network",
			"bound = (D/2-1)·lmax is the delay the construction certifies; t_adv must exceed it (checked)",
			"Lemma 9 is verified on every row: the real run's informed-times equal the construction's",
			"built with Force outside the asymptotic window n^{3/4} < D <= n/16 (laptop-scale n)",
		},
	}
	sizes := [][2]int{{512, 32}, {1024, 64}, {2048, 128}}
	if cfg.Quick {
		sizes = [][2]int{{256, 16}}
	}
	protos := []radio.DeterministicProtocol{det.RoundRobin{}, det.SelectAndSend{}}
	type point struct {
		p    radio.DeterministicProtocol
		n, d int
	}
	var points []point
	for _, p := range protos {
		for _, sz := range sizes {
			points = append(points, point{p, sz[0], sz[1]})
		}
	}
	err := runPoints(ctx, cfg, t, len(points), func(_ context.Context, i int) ([][]any, error) {
		p, n, d := points[i].p, points[i].n, points[i].d
		c, err := lowerbound.Build(p, lowerbound.Params{N: n, D: d, Force: true})
		if err != nil {
			return nil, fmt.Errorf("E4 %s n=%d: %w", p.Name(), n, err)
		}
		res, err := lowerbound.VerifyRealRun(p, c, 0)
		if err != nil {
			return nil, fmt.Errorf("E4 %s n=%d: %w", p.Name(), n, err)
		}
		if res.BroadcastTime < c.LowerBoundSteps() {
			return nil, fmt.Errorf("E4 %s n=%d: time %d below bound %d", p.Name(), n, res.BroadcastTime, c.LowerBoundSteps())
		}
		return [][]any{{p.Name(), n, d, c.K, c.LMax, c.LowerBoundSteps(), res.BroadcastTime,
			float64(res.BroadcastTime) / float64(c.LowerBoundSteps()),
			stats.ModelDetLB(float64(n), float64(d))}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E5: Select-and-Send completes in O(n log n) on arbitrary networks; the
// normalized time t/(n log n) should stay near a constant as n grows.
func E5(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Select-and-Send on arbitrary networks",
		Columns: []string{"topology", "n", "t", "t/(n log n)"},
		Notes: []string{
			"paper (Thm 3): O(n log n) for every n-node undirected network",
			"the last column should be roughly flat in n for each topology",
		},
	}
	sizes := []int{256, 512, 1024, 2048}
	if cfg.Quick {
		sizes = []int{128, 256}
	}
	err := runPoints(ctx, cfg, t, len(sizes), func(_ context.Context, i int) ([][]any, error) {
		n := sizes[i]
		src := rng.NewStream(cfg.Seed, uint64(n))
		workloads := map[string]*graph.Graph{
			"gnp":  graph.GNPConnected(n, 4.0/float64(n), src),
			"tree": graph.RandomTree(n, src),
		}
		side := int(math.Sqrt(float64(n)))
		workloads["grid"] = graph.Grid(side, side)
		var rows [][]any
		for _, name := range []string{"gnp", "tree", "grid"} {
			g := workloads[name]
			res, err := simulate(g, det.SelectAndSend{}, radio.Config{}, radio.Options{})
			if err != nil {
				return nil, fmt.Errorf("E5 %s n=%d: %w", name, n, err)
			}
			nn := float64(g.N())
			rows = append(rows, []any{name, g.N(), res.BroadcastTime, float64(res.BroadcastTime) / stats.ModelNLogN(nn)})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E6: Algorithm Complete-Layered beats the (incorrectly) claimed Ω(n log D)
// for unbounded D ∈ o(n): the normalized t/(n + D log n) column must stay
// bounded while t/(n log D) falls as n grows. Worst-case label placement
// makes the additive Θ(n) bootstrap term real instead of accidental.
func E6(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Complete-Layered on worst-labelled complete layered networks",
		Columns: []string{"n", "D", "t", "t/(n+D log n)", "t/(n log D)"},
		Notes: []string{
			"paper (Thm 4 + §4.3): O(n + D log n), refuting the claimed Ω(n log D) of [10] for undirected graphs",
			"middle column bounded; last column falling with n (at D = √n ∈ o(n)) demonstrates the refutation",
		},
	}
	sizes := []int{512, 1024, 2048, 4096}
	if cfg.Quick {
		sizes = []int{256, 512}
	}
	err := runPoints(ctx, cfg, t, len(sizes), func(_ context.Context, i int) ([][]any, error) {
		n := sizes[i]
		ds := []int{intSqrt(n)}
		if n/32 != ds[0] {
			ds = append(ds, n/32)
		}
		var rows [][]any
		for _, d := range ds {
			if d < 2 || d > n/4 {
				continue
			}
			g, err := graph.WorstLabelCompleteLayered(n, d)
			if err != nil {
				return nil, err
			}
			res, err := simulate(g, det.CompleteLayered{}, radio.Config{}, radio.Options{})
			if err != nil {
				return nil, fmt.Errorf("E6 n=%d d=%d: %w", n, d, err)
			}
			nf, df := float64(n), float64(d)
			rows = append(rows, []any{n, d, res.BroadcastTime,
				float64(res.BroadcastTime) / stats.ModelCompleteLayered(nf, df),
				float64(res.BroadcastTime) / (nf * math.Log2(df))})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func intSqrt(n int) int {
	return int(math.Sqrt(float64(n)))
}

// E7: round-robin is O(nD), Select-and-Send O(n log n); interleaving them
// gives O(n·min(D, log n)). The crossover should sit near D ≈ log n.
//
// The workload graphs are drawn from ONE sequential stream (each draw
// consumes randomness the next depends on), so generation stays a
// sequential prologue; only the measurements fan out.
func E7(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Round-robin vs Select-and-Send vs interleaving across D",
		Columns: []string{"n", "D", "t_rr", "t_ss", "t_inter", "winner"},
		Notes: []string{
			"paper (§4.2): interleaving gives O(n·min(D, log n)); round-robin wins for D below ~log n",
			"t_inter should track ~2x the better of the two columns",
		},
	}
	n := 1024
	if cfg.Quick {
		n = 256
	}
	src := rng.NewStream(cfg.Seed, 7)
	var (
		ds     []int
		graphs []*graph.Graph
	)
	for _, d := range []int{2, 4, 8, 16, 64, 256} {
		if d > n/4 {
			continue
		}
		g, err := graph.RandomLayered(n, d, 0.2, src)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
		graphs = append(graphs, g)
	}
	err := runPoints(ctx, cfg, t, len(ds), func(_ context.Context, i int) ([][]any, error) {
		d, g := ds[i], graphs[i]
		rr, err := simulate(g, det.RoundRobin{}, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E7 rr d=%d: %w", d, err)
		}
		ss, err := simulate(g, det.SelectAndSend{}, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E7 ss d=%d: %w", d, err)
		}
		inter, err := simulate(g, det.NewInterleaved(det.RoundRobin{}, det.SelectAndSend{}),
			radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E7 inter d=%d: %w", d, err)
		}
		winner := "round-robin"
		if ss.BroadcastTime < rr.BroadcastTime {
			winner = "select-and-send"
		}
		return [][]any{{n, d, rr.BroadcastTime, ss.BroadcastTime, inter.BroadcastTime, winner}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E8: remove the universal-sequence step from Stage(D, i) and watch
// high-in-degree fronts suffer — the paper's argument for why "trying to
// shorten procedure Decay would not work".
func E8(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Stage(D,i) with and without the universal-sequence step (StarChain fronts)",
		Columns: []string{"fanin", "n", "t_full", "t_ablated", "penalty"},
		Notes: []string{
			"paper (§2): the truncated ladder alone cannot inform nodes with more than r/D informed in-neighbors quickly",
			"t_* are medians over trials (censored at the step budget); the ablated variant pays orders of magnitude",
		},
	}
	fanins := []int{16, 64, 256}
	if cfg.Quick {
		fanins = []int{8, 32}
	}
	trials := cfg.trials(9)
	// Chain of 2 wide hops; the assumed radius is deliberately large so
	// that the ladder of Stage(D,i) stops at probability ~D/r, far above
	// 1/fan-in: exactly the "many informed in-neighbors" regime the
	// universal-sequence step exists for. The ablated variant can cross
	// such a front only by luck.
	const chain = 2
	const assumedRadius = 32
	const budget = 200_000
	err := runPoints(ctx, cfg, t, len(fanins), func(ctx context.Context, pi int) ([][]any, error) {
		w := fanins[pi]
		g := graph.StarChain(chain, w) // read-only, shared across trial workers
		// Radio seeds stay cfg.Seed+100w+i: the runner adds 1000+i, and
		// unsigned wrap-around makes the offset exact for every w.
		sums, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: cfg.Seed + uint64(100*w) - 1000,
			budget: budget, build: func(*rng.Source) (*graph.Graph, error) { return g, nil }},
			func() radio.Protocol { return core.NewWithParams(core.Params{KnownRadius: assumedRadius}) },
			func() radio.Protocol {
				return core.NewWithParams(core.Params{KnownRadius: assumedRadius, DisableUniversalStep: true})
			})
		if err != nil {
			return nil, fmt.Errorf("E8 fanin=%d: %w", w, err)
		}
		fs, as := sums[0].time, sums[1].time
		return [][]any{{w, g.N(), fs.Median, as.Median, as.Median / fs.Median}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E9 is an extension beyond the paper: total transmissions (the energy a
// battery-powered deployment spends) for every algorithm on a common
// workload. The paper optimizes time only; this table shows the price each
// algorithm pays in messages, which the time bounds hide.
func E9(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Message complexity on a random layered network",
		Columns: []string{"protocol", "n", "D", "time", "transmissions", "tx/node", "fairness", "collisions"},
		Notes: []string{
			"extension (not a paper table): energy cost next to broadcast time",
			"token algorithms trade time for far fewer transmissions than Decay-style flooding",
		},
	}
	n, d := 1024, 32
	if cfg.Quick {
		n, d = 256, 8
	}
	src := rng.NewStream(cfg.Seed, 99)
	g, err := graph.RandomLayered(n, d, 0.3, src)
	if err != nil {
		return nil, err
	}
	protos := []radio.Protocol{
		core.New(),
		decay.New(),
		det.RoundRobin{},
		det.SelectAndSend{},
		det.NewInterleaved(det.RoundRobin{}, det.SelectAndSend{}),
	}
	err = runPoints(ctx, cfg, t, len(protos), func(_ context.Context, i int) ([][]any, error) {
		p := protos[i]
		var col trace.Collector
		res, err := simulate(g, p, radio.Config{Seed: cfg.Seed + 5}, radio.Options{Trace: col.Hook()})
		if err != nil {
			return nil, fmt.Errorf("E9 %s: %w", p.Name(), err)
		}
		return [][]any{{p.Name(), n, d, res.BroadcastTime, res.Transmissions,
			float64(res.Transmissions) / float64(n), col.JainFairness(), res.Collisions}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E10 is an extension quantifying Section 1.1's remark that with
// neighborhood knowledge (the model of [3]) "a simple linear-time
// broadcasting algorithm based on DFS follows from [2]": the DFS token
// finishes in <= 2n steps, while Select-and-Send — same DFS, but blind —
// pays the Θ(log n) Echo/Binary-Selection machinery per hop. The measured
// ratio should grow like log n.
func E10(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Neighborhood knowledge: [2]-style DFS vs Select-and-Send",
		Columns: []string{"n", "t_dfs", "t_ss", "ratio", "log2 n"},
		Notes: []string{
			"extension (Section 1.1 remark): knowing neighbor labels removes the selection overhead",
			"ratio should track Θ(log n)",
		},
	}
	sizes := []int{256, 512, 1024, 2048}
	if cfg.Quick {
		sizes = []int{128, 256}
	}
	err := runPoints(ctx, cfg, t, len(sizes), func(_ context.Context, i int) ([][]any, error) {
		n := sizes[i]
		src := rng.NewStream(cfg.Seed, uint64(n))
		g := graph.RandomTree(n, src)
		dfs, err := simulate(g, det.DFSNeighborhood{}, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E10 dfs n=%d: %w", n, err)
		}
		ss, err := simulate(g, det.SelectAndSend{}, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E10 ss n=%d: %w", n, err)
		}
		return [][]any{{n, dfs.BroadcastTime, ss.BroadcastTime,
			float64(ss.BroadcastTime) / float64(dfs.BroadcastTime), math.Log2(float64(n))}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E11 maps Section 1.1's model landscape on one workload: with spontaneous
// transmissions, deterministic broadcast is Θ(n) ([7], matching [15]'s
// lower bound); with neighborhood knowledge it is Θ(n) too ([2]); in the
// paper's standard model the best known deterministic algorithm is
// Select-and-Send's O(n log n) against Theorem 2's Ω(n log n / log(n/D)).
func E11(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Model landscape: spontaneous vs neighbor-aware vs standard",
		Columns: []string{"n", "t_spontaneous", "t_neighbor_dfs", "t_standard_ss", "spont/n", "ss/(n log n)"},
		Notes: []string{
			"extension (§1.1): both stronger models are linear in n; the standard model pays a log factor",
			"spont/n should stay flat (Θ(n)); the last column flat too (Θ(n log n))",
		},
	}
	sizes := []int{256, 512, 1024, 2048}
	if cfg.Quick {
		sizes = []int{128, 256}
	}
	err := runPoints(ctx, cfg, t, len(sizes), func(_ context.Context, i int) ([][]any, error) {
		n := sizes[i]
		src := rng.NewStream(cfg.Seed, uint64(3*n))
		g := graph.GNPConnected(n, 3.0/float64(n), src)
		spont, err := simulate(g, det.SpontaneousLinear{}, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E11 spontaneous n=%d: %w", n, err)
		}
		dfs, err := simulate(g, det.DFSNeighborhood{}, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E11 dfs n=%d: %w", n, err)
		}
		ss, err := simulate(g, det.SelectAndSend{}, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E11 ss n=%d: %w", n, err)
		}
		nf := float64(n)
		return [][]any{{n, spont.BroadcastTime, dfs.BroadcastTime, ss.BroadcastTime,
			float64(spont.BroadcastTime) / nf,
			float64(ss.BroadcastTime) / stats.ModelNLogN(nf)}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E12 completes the Section 4.3 story. For DIRECTED complete layered
// networks the adversarial Ω(n log D)-style hardness of [10] is real: a
// [10]-style game (lowerbound.BuildDirectedLayered) makes an oblivious
// deterministic schedule pay orders of magnitude over a benign label
// placement of the same shape. For UNDIRECTED networks the paper refutes
// the bound: Algorithm Complete-Layered exploits the back-edges (Echo
// feedback) and stays at O(n + D log n). Feedback algorithms deadlock on
// the directed instances — the refutation cannot carry over, exactly as
// the paper argues.
func E12(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Directed adversarial vs benign vs undirected feedback",
		Columns: []string{"n", "D", "t_dir_adversarial", "t_dir_benign", "slowdown", "t_undir_feedback"},
		Notes: []string{
			"extension (§4.3): victim = oblivious decay schedule; adversary = directed layer-composition game",
			"the undirected column runs Complete-Layered (O(n + D log n)) on the same layer shape with back-edges",
			"directed equivalence (construction = real run) is verified on every row",
		},
	}
	sizes := [][2]int{{512, 8}, {1024, 16}, {2048, 16}}
	if cfg.Quick {
		sizes = [][2]int{{256, 8}}
	}
	err := runPoints(ctx, cfg, t, len(sizes), func(_ context.Context, i int) ([][]any, error) {
		n, d := sizes[i][0], sizes[i][1]
		victim := det.ObliviousDecay{Seed: cfg.Seed + 1}
		c, err := lowerbound.BuildDirectedLayered(victim, lowerbound.DirectedParams{N: n, D: d})
		if err != nil {
			return nil, fmt.Errorf("E12 build n=%d: %w", n, err)
		}
		adv, err := lowerbound.VerifyDirectedRealRun(victim, c, 0)
		if err != nil {
			return nil, fmt.Errorf("E12 verify n=%d: %w", n, err)
		}
		benignU, err := graph.UniformCompleteLayered(n+1, d)
		if err != nil {
			return nil, err
		}
		layers, err := benignU.Layers()
		if err != nil {
			return nil, err
		}
		benignD := graph.NewBuilder(benignU.N(), false)
		for li := 0; li+1 < len(layers); li++ {
			for _, u := range layers[li] {
				for _, v := range layers[li+1] {
					benignD.MustAddEdge(u, v)
				}
			}
		}
		bres, err := simulate(benignD.MustBuild(), victim, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E12 benign n=%d: %w", n, err)
		}
		ures, err := simulate(benignU, det.CompleteLayered{}, radio.Config{}, radio.Options{})
		if err != nil {
			return nil, fmt.Errorf("E12 undirected n=%d: %w", n, err)
		}
		return [][]any{{n, d, adv.BroadcastTime, bres.BroadcastTime,
			float64(adv.BroadcastTime) / float64(bres.BroadcastTime), ures.BroadcastTime}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E13 checks Section 2's generality claim: "this particular result holds in
// the more general setting of directed graphs as well" — the analysis is
// even carried out for directed radius D. The measured times on directed
// layered networks must match the undirected ones of equal (n, D) in order
// of magnitude.
func E13(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "KP (known D) on directed vs undirected layered networks",
		Columns: []string{"n", "D", "t_directed", "t_undirected", "ratio"},
		Notes: []string{
			"paper (§2): Theorem 1 is proved for directed radius D; undirected is the special case",
			"the ratio should hover near 1",
		},
	}
	sizes := []int{512, 1024, 2048}
	if cfg.Quick {
		sizes = []int{256}
	}
	trials := cfg.trials(5)
	err := runPoints(ctx, cfg, t, len(sizes), func(ctx context.Context, i int) ([][]any, error) {
		n := sizes[i]
		d := n / 16
		kp := func() radio.Protocol { return core.NewWithParams(core.Params{KnownRadius: d}) }
		directed, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: cfg.Seed + uint64(2*n),
			build: func(src *rng.Source) (*graph.Graph, error) {
				return graph.DirectedLayered(n, d, 0.3, src)
			}}, kp)
		if err != nil {
			return nil, fmt.Errorf("E13 directed n=%d: %w", n, err)
		}
		undirected, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: cfg.Seed + uint64(2*n),
			build: func(src *rng.Source) (*graph.Graph, error) {
				return graph.RandomLayered(n, d, 0.3, src)
			}}, kp)
		if err != nil {
			return nil, fmt.Errorf("E13 undirected n=%d: %w", n, err)
		}
		td, tu := directed[0].time.Mean, undirected[0].time.Mean
		return [][]any{{n, d, td, tu, td / tu}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E14 quantifies the one substitution this reproduction makes in the
// paper's algorithm: the per-phase stage budget (4660·D in Lemma 6, 16·D in
// simulation) and the 32·r^{2/3} BGI fallback. With the published
// constants, the doubling wrapper spends its entire time inside the first
// few phases (whose stages are log(r/2)+2 long), so at finite n the exact
// paper configuration behaves like BGI; the simulation constants let the
// wrapper reach the phase whose stage length actually matches D. Both
// complete reliably — the substitution trades none of the correctness, only
// finite-size speed.
func E14(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Doubling wrapper under different stage budgets",
		Columns: []string{"n", "D", "t_factor16", "t_factor128", "t_paper4660", "t_BGI"},
		Notes: []string{
			"fidelity ablation (DESIGN.md §6): larger stage budgets push completion into earlier phases",
			"with longer stages; at the published 4660 the wrapper is BGI-like at laptop scale",
		},
	}
	sizes := []int{1024, 2048}
	if cfg.Quick {
		sizes = []int{256}
	}
	trials := cfg.trials(5)
	err := runPoints(ctx, cfg, t, len(sizes), func(ctx context.Context, i int) ([][]any, error) {
		n := sizes[i]
		d := n / 16
		sums, err := runTrials(ctx, cfg, trialSpec{trials: trials, seed: cfg.Seed + uint64(n),
			build: func(src *rng.Source) (*graph.Graph, error) {
				return graph.RandomLayered(n, d, 0.3, src)
			}},
			func() radio.Protocol { return core.NewWithParams(core.Params{StageFactor: 16}) },
			func() radio.Protocol { return core.NewWithParams(core.Params{StageFactor: 128}) },
			func() radio.Protocol { return core.NewPaperExact() },
			func() radio.Protocol { return decay.New() })
		if err != nil {
			return nil, fmt.Errorf("E14 n=%d: %w", n, err)
		}
		return [][]any{{n, d, sums[0].time.Mean, sums[1].time.Mean, sums[2].time.Mean, sums[3].time.Mean}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
