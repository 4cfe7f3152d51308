package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/obs"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

// trial is one generated input of the trial workloads: build a fresh graph,
// then run each protocol on it through the worker's reused radio.Runner.
type trial struct {
	Gen       string      `json:"gen"`
	N         int         `json:"n"`
	D         int         `json:"d,omitempty"`
	P         float64     `json:"p,omitempty"`
	GraphSeed uint64      `json:"graph_seed,omitempty"`
	Protos    []string    `json:"protos"`
	ProtoSeed uint64      `json:"proto_seed"`
	Fault     *fault.Plan `json:"fault,omitempty"`
	MaxSteps  int         `json:"max_steps,omitempty"`
}

// dense reports whether the trial's generator belongs to the dense family,
// for the graph.build_s.dense / .sparse split.
func (t trial) dense() bool {
	return t.Gen == "uniform" || t.Gen == "worst" || (t.Gen == "layered" && t.P >= 0.5)
}

// build constructs the trial's graph.
func (t trial) build() (*graph.Graph, error) {
	src := rng.New(t.GraphSeed)
	switch t.Gen {
	case "uniform":
		return graph.UniformCompleteLayered(t.N, t.D)
	case "worst":
		return graph.WorstLabelCompleteLayered(t.N, t.D)
	case "layered":
		return graph.RandomLayered(t.N, t.D, t.P, src)
	case "gnp":
		return graph.GNPConnected(t.N, t.P, src), nil
	case "tree":
		return graph.RandomTree(t.N, src), nil
	case "regular":
		return graph.RandomRegular(t.N, t.D, src)
	case "disk":
		return graph.UnitDisk(t.N, t.P, src), nil
	}
	return nil, fmt.Errorf("unknown generator %q", t.Gen)
}

// compile builds the adjacency forms the engine dispatches on, as the
// engine itself would on its first run: the CSR always, the bitmap rows
// when the graph is dense enough for the bitset tally.
func compile(g *graph.Graph) int {
	c := g.Compile()
	if graph.BitmapDense(g.N(), c.Arcs()) {
		g.CompileBitmap()
	}
	return c.Arcs()
}

// protocol returns a fresh protocol by its radiosim name.
func protocol(name string) (radio.Protocol, error) {
	switch name {
	case "kp":
		return core.New(), nil
	case "bgi":
		return decay.New(), nil
	case "ss":
		return det.SelectAndSend{}, nil
	case "rr":
		return det.RoundRobin{}, nil
	case "inter":
		return det.NewInterleaved(det.RoundRobin{}, det.SelectAndSend{}), nil
	}
	return nil, fmt.Errorf("unknown protocol %q", name)
}

// denseShapes are the (n, d) of dense-trials, largest first so the
// workers finish a round together.
var denseShapes = [][2]int{{4096, 2}, {4096, 4}, {4096, 8}, {2048, 2}, {2048, 4}, {2048, 8}}

// denseGens are the dense generators.
var denseGens = []string{"uniform", "worst", "layered"}

// denseRound is the size of one dense-trials round: every generator on
// every shape once. Every round holds the same mix, so the median round
// moves with a change to any one generator.
var denseRound = len(denseShapes) * len(denseGens)

// denseTrials generates the dense-trials work list of the given number of
// rounds: complete layered networks (uniform and worst-label) and
// near-complete random layered networks, n in {2048, 4096}, d in {2, 4, 8},
// each run with KP and BGI.
func denseTrials(seed uint64, rounds int) []trial {
	out := make([]trial, rounds*denseRound)
	for i := range out {
		sh := denseShapes[(i%denseRound)/len(denseGens)]
		gen := denseGens[i%len(denseGens)]
		t := trial{Gen: gen, N: sh[0], D: sh[1], Protos: []string{"kp", "bgi"},
			ProtoSeed: rng.NewStream(seed, uint64(2*i+1)).Uint64()}
		if gen == "layered" {
			t.P = 0.9
			t.GraphSeed = rng.NewStream(seed, uint64(2*i)).Uint64()
		}
		out[i] = t
	}
	return out
}

// sparseCombos are the (generator, protocol) pairs of sparse-trials. Their
// count is prime, so the every-16th reference reruns visit every pair.
var sparseCombos = [][2]string{
	{"layered16", "kp"}, {"layered16", "bgi"},
	{"layered128", "kp"}, {"layered128", "bgi"},
	{"gnp", "kp"}, {"gnp", "bgi"}, {"gnp", "rr"}, {"gnp", "inter"},
	{"tree", "kp"}, {"tree", "bgi"}, {"tree", "ss"},
	{"regular", "kp"}, {"regular", "bgi"}, {"regular", "rr"}, {"regular", "inter"},
	{"disk", "kp"}, {"disk", "bgi"},
}

// sparseTrials generates the sparse-trials work list: sparse generators
// with n in [1024, 2048], one protocol per trial, and a fault plan on every
// third trial (link loss, jammers and crashes in turn). Each pair's n
// values stride through the range on a schedule that does not depend on the
// seed, so the seed changes every graph and every random choice but not how
// much work the list holds.
func sparseTrials(seed uint64, count int) []trial {
	out := make([]trial, count)
	for i := range out {
		ci, k := i%len(sparseCombos), i/len(sparseCombos)
		c := sparseCombos[ci]
		n := 1024 + (k*389+ci*61)%1025
		t := trial{N: n, Protos: []string{c[1]},
			GraphSeed: rng.NewStream(seed, uint64(3*i)).Uint64(),
			ProtoSeed: rng.NewStream(seed, uint64(3*i+1)).Uint64()}
		switch c[0] {
		case "layered16":
			t.Gen, t.D, t.P = "layered", n/16, 0.3
		case "layered128":
			t.Gen, t.D, t.P = "layered", 128, 0.2
		case "gnp":
			t.Gen, t.P = "gnp", 4/float64(n)
		case "regular":
			t.Gen, t.D = "regular", 4
		case "disk":
			t.Gen, t.P = "disk", 2/math.Sqrt(float64(n))
		default:
			t.Gen = c[0]
		}
		if i%3 == 2 {
			fs := rng.NewStream(seed, uint64(3*i+2))
			plan := &fault.Plan{Seed: fs.Uint64()}
			switch (i / 3) % 3 {
			case 0:
				plan.LinkLoss = 0.2
			case 1:
				for _, v := range fs.Sample(n-1, 4) {
					plan.Jammers = append(plan.Jammers, 1+v)
				}
				plan.JamProb = 0.5
			case 2:
				plan.CrashFrac, plan.CrashWindow = 0.02, n
			}
			t.Fault = plan
			// Faulty runs may never complete (a node that crashes before
			// it is informed stays uninformed); a budget of 4n steps keeps
			// such censored runs from dominating the workload.
			t.MaxSteps = 4 * n
		}
		out[i] = t
	}
	return out
}

// outcome is what one protocol run on one trial produced.
type outcome struct {
	Completed     bool
	StepLimited   bool
	BroadcastTime int
	Steps         int
	Transmissions int64
	Receptions    int64
	Collisions    int64
	Counters      obs.Counters
}

// trialTotals accumulates per-layer work across the trials of one worker.
type trialTotals struct {
	arcs             int64
	clean, faulty    obs.Counters
	censored, failed int64
	errs             []string
}

func (a *trialTotals) add(b trialTotals) {
	a.arcs += b.arcs
	a.clean.Add(b.clean)
	a.faulty.Add(b.faulty)
	a.censored += b.censored
	a.failed += b.failed
	a.errs = append(a.errs, b.errs...)
}

// runTrials executes the trial list with one goroutine per runner, each
// reusing its Runner for every trial it takes, and returns every trial's
// outcomes in order. base is the index of trials[0] in the whole work list.
func runTrials(trials []trial, base int, runners []*radio.Runner, tr *tracer) ([][]outcome, trialTotals) {
	results := make([][]outcome, len(trials))
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		totals trialTotals
	)
	for _, runner := range runners {
		wg.Add(1)
		go func(runner *radio.Runner) {
			defer wg.Done()
			var res radio.Result
			var mine trialTotals
			for {
				i := int(next.Add(1)) - 1
				if i >= len(trials) {
					break
				}
				results[i] = runTrial(base+i, trials[i], runner, &res, &mine, tr)
			}
			mu.Lock()
			totals.add(mine)
			mu.Unlock()
		}(runner)
	}
	wg.Wait()
	return results, totals
}

// runTrial builds, compiles and simulates one trial. A run error other than
// radio.ErrStepLimit is a failed trial.
func runTrial(i int, t trial, runner *radio.Runner, res *radio.Result, tot *trialTotals, tr *tracer) []outcome {
	root := tr.start(uint64(i), 0, "harness", "trial")
	defer root.end()
	buildName := "build.sparse"
	if t.dense() {
		buildName = "build.dense"
	}
	sp := tr.start(uint64(i), root.ID, "graph", buildName)
	g, err := t.build()
	sp.end()
	if err != nil {
		tot.failed++
		tot.errs = append(tot.errs, fmt.Sprintf("trial %d: build: %v", i, err))
		return nil
	}
	sp = tr.start(uint64(i), root.ID, "graph", "compile")
	tot.arcs += int64(compile(g))
	sp.end()

	out := make([]outcome, 0, len(t.Protos))
	for _, name := range t.Protos {
		p, err := protocol(name)
		if err != nil {
			tot.failed++
			tot.errs = append(tot.errs, fmt.Sprintf("trial %d: %v", i, err))
			return out
		}
		runName := "run.clean"
		if t.Fault != nil {
			runName = "run.faulty"
		}
		before := runner.Counters()
		sp = tr.start(uint64(i), root.ID, "radio", runName)
		err = runner.RunInto(res, g, p, radio.Config{Seed: t.ProtoSeed}, radio.Options{MaxSteps: t.MaxSteps, Fault: t.Fault})
		sp.end()
		c := runner.Counters().Diff(before)
		if t.Fault != nil {
			tot.faulty.Add(c)
		} else {
			tot.clean.Add(c)
		}
		o := outcome{Completed: res.Completed, BroadcastTime: res.BroadcastTime, Steps: res.StepsSimulated,
			Transmissions: res.Transmissions, Receptions: res.Receptions, Collisions: res.Collisions, Counters: c}
		switch {
		case errors.Is(err, radio.ErrStepLimit):
			o.StepLimited = true
			tot.censored++
		case err != nil:
			tot.failed++
			tot.errs = append(tot.errs, fmt.Sprintf("trial %d %s: %v", i, name, err))
		}
		out = append(out, o)
	}
	return out
}

// trialDigest hashes every trial's index and, per protocol run, its
// broadcast time and transmission, reception and collision counts.
func trialDigest(results [][]outcome) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i, outs := range results {
		put(int64(i))
		for _, o := range outs {
			put(int64(o.BroadcastTime))
			put(o.Transmissions)
			put(o.Receptions)
			put(o.Collisions)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceEvery is the stride of the reference reruns: every 16th trial is
// rerun through the naive oracle.
const referenceEvery = 16

// checkAgainstReference reruns every referenceEvery-th trial through
// radio.RunReferenceObserved with the same inputs and fault plan, and
// reports each disagreement with the engine's result or counters. The
// reruns use workers goroutines; they run after the timed region.
func checkAgainstReference(ctx context.Context, trials []trial, results [][]outcome, workers int) []string {
	var idx []int
	for i := 0; i < len(trials); i += referenceEvery {
		idx = append(idx, i)
	}
	var (
		mu    sync.Mutex
		fails []string
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	fail := func(format string, a ...any) {
		mu.Lock()
		fails = append(fails, fmt.Sprintf(format, a...))
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) || ctx.Err() != nil {
					return
				}
				i := idx[k]
				t := trials[i]
				g, err := t.build()
				if err != nil {
					fail("reference trial %d: build: %v", i, err)
					continue
				}
				if len(results[i]) != len(t.Protos) {
					fail("reference trial %d: engine produced %d of %d runs", i, len(results[i]), len(t.Protos))
					continue
				}
				for j, name := range t.Protos {
					p, _ := protocol(name) // known: the timed run accepted it
					ref, c, err := radio.RunReferenceObserved(g, p, radio.Config{Seed: t.ProtoSeed}, t.MaxSteps, t.Fault)
					if err != nil && !errors.Is(err, radio.ErrStepLimit) {
						fail("reference trial %d %s: %v", i, name, err)
						continue
					}
					got := results[i][j]
					want := outcome{Completed: ref.Completed, StepLimited: err != nil, BroadcastTime: ref.BroadcastTime,
						Steps: ref.StepsSimulated, Transmissions: ref.Transmissions, Receptions: ref.Receptions,
						Collisions: ref.Collisions, Counters: c}
					if got != want {
						fail("reference trial %d %s: engine %+v, reference %+v", i, name, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
	return fails
}

// trialsInput is what the trial workloads' child process receives.
type trialsInput struct {
	Trials  []trial `json:"trials"`
	Workers int     `json:"workers"`
	// Rounds splits the list into that many consecutive equal rounds,
	// each started from a collected heap (see runTrialsWorkload).
	Rounds int `json:"rounds"`
	// Digest is the committed work-list digest to check against; empty
	// when none is committed for these inputs.
	Digest string `json:"digest,omitempty"`
}

// runTrialsWorkload is the child side of dense-trials and sparse-trials.
// The trial list runs in rounds. Before each round, outside the timed
// region, su runs the set-up runs that fall there, then the heap is
// collected and returned to the OS and the peak-RSS mark is reset, so every
// round starts from the same memory state. The
// reported wall and CPU times are the number of rounds times the median
// round, so one round disturbed by another process on the machine does not
// move them. The peak RSS is the mean round peak: another process cannot
// move a round's peak, but the timing of garbage collections against the
// concurrent builds moves it by up to a third, and with few rounds a median
// jumps between the low and the high peaks where a mean moves smoothly.
func runTrialsWorkload(ctx context.Context, in trialsInput, tr *tracer, su *setups) (report, error) {
	var rep report
	rounds := max(1, min(in.Rounds, len(in.Trials)))
	results := make([][]outcome, len(in.Trials))
	var tot trialTotals
	var walls, cpus, peaks []float64
	runners := make([]*radio.Runner, in.Workers)
	for i := range runners {
		runners[i] = radio.NewRunner()
	}
	for r := 0; r < rounds; r++ {
		lo, hi := r*len(in.Trials)/rounds, (r+1)*len(in.Trials)/rounds
		if err := su.before(r, rounds); err != nil {
			return rep, err
		}
		if err := cleanHeap(); err != nil {
			return rep, err
		}
		cpu0 := cpuSeconds()
		t0 := time.Now()
		res, rt := runTrials(in.Trials[lo:hi], lo, runners, tr)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-cpu0)
		hwm, err := procStatusKB("self", "VmHWM")
		if err != nil {
			return rep, err
		}
		peaks = append(peaks, float64(hwm)/1024)
		copy(results[lo:hi], res)
		tot.add(rt)
	}
	wall := float64(rounds) * median(walls)
	cpu := float64(rounds) * median(cpus)

	rep.Attempted, rep.Failed = int64(len(in.Trials)), tot.failed
	rep.Checks = append(rep.Checks, tot.errs...)
	rep.Digest = trialDigest(results)
	if in.Digest != "" && rep.Digest != in.Digest {
		rep.Checks = append(rep.Checks, fmt.Sprintf("trial digest %s, committed %s", rep.Digest, in.Digest))
	}
	rep.Checks = append(rep.Checks, checkAgainstReference(ctx, in.Trials, results, in.Workers)...)

	m := metrics{}
	m.set("wall_s", wall, fmt.Sprintf("%d trials in %d rounds, %.4g trials/s", len(in.Trials), rounds, float64(len(in.Trials))/wall))
	m.set("cpu_s", cpu)
	m.set("peak_rss_mb", mean(peaks), fmt.Sprintf("mean of %d round peaks %.4g", rounds, peaks))
	all := tot.clean
	all.Add(tot.faulty)
	m.set("radio.steps", float64(all.Steps))
	m.set("radio.transmissions", float64(all.Transmissions))
	m.set("radio.receptions", float64(all.Receptions))
	m.set("radio.collisions", float64(all.Collisions))
	m.set("radio.silent_steps", float64(all.SilentSteps))
	m.set("radio.censored", float64(tot.censored))
	m.set("fault.events", float64(all.FaultEvents()))
	m.set("graph.arcs", float64(tot.arcs))
	if tr != nil {
		spans := tr.spans
		dense, sparse := busy(spans, "graph", "build.dense"), busy(spans, "graph", "build.sparse")
		build := dense + sparse
		runClean, runFaulty := busy(spans, "radio", "run.clean"), busy(spans, "radio", "run.faulty")
		trialBusy := busy(spans, "harness", "trial")
		m.set("graph.build_s", seconds(build))
		m.set("graph.build_s.dense", seconds(dense))
		m.set("graph.build_s.sparse", seconds(sparse))
		m.set("graph.compile_s", seconds(busy(spans, "graph", "compile")))
		m.set("graph.build_ns_per_arc", ratio(float64(build), float64(tot.arcs)))
		m.set("graph.build_share", ratio(float64(build), float64(trialBusy)))
		m.set("radio.run_s.clean", seconds(runClean))
		m.set("radio.run_s.faulty", seconds(runFaulty))
		m.set("radio.run_share", ratio(float64(runClean+runFaulty), float64(trialBusy)))
		m.set("radio.ns_per_step.clean", ratio(float64(runClean), float64(tot.clean.Steps)))
		m.set("radio.ns_per_step.faulty", ratio(float64(runFaulty), float64(tot.faulty.Steps)))
	}
	rep.Metrics = m
	return rep, nil
}

// seconds converts nanoseconds to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// ratio is a/b, or 0 when b is 0 (a layer with no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
