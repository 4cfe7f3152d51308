// Package adhocradio is a faithful, executable reproduction of
//
//	Dariusz R. Kowalski, Andrzej Pelc:
//	"Broadcasting in undirected ad hoc radio networks", PODC 2003
//	(journal version: Distributed Computing 18:43–57, 2005).
//
// It provides the synchronous radio network model of the paper (collisions
// indistinguishable from silence, no collision detection, no spontaneous
// transmissions), every algorithm the paper introduces or depends on, and
// the Section 3 adversary that constructs hard networks for any
// deterministic algorithm:
//
//   - NewOptimalRandomized: the paper's main contribution, randomized
//     broadcast in expected time O(D log(n/D) + log²n) (Theorem 1), built
//     from universal sequences (Lemma 1) and the Stage procedure.
//   - NewDecay: the Bar-Yehuda–Goldreich–Itai baseline,
//     O(D log n + log²n).
//   - NewSelectAndSend: deterministic O(n log n) broadcast via a DFS token,
//     Echo and Binary-Selection (Theorem 3).
//   - NewRoundRobin and NewInterleaved: the O(nD) baseline and the
//     O(n·min(D, log n)) combination (Section 4.2).
//   - NewCompleteLayered: O(n + D log n) on complete layered networks,
//     refuting the claimed Ω(n log D) undirected lower bound (Theorem 4).
//   - BuildAdversarialNetwork: the Theorem 2 construction forcing
//     Ω(n log n / log(n/D)) on any deterministic algorithm.
//
// Topology generators (Path, Star, CompleteLayeredNetwork, RandomLayered,
// GNPConnected, RandomTree, Grid, UnitDisk, StarChain, ...) cover the
// workloads of the experiments E1–E17 described in DESIGN.md; RunExperiment
// regenerates any of their tables.
//
// A minimal session:
//
//	src := adhocradio.NewRand(1)
//	g, _ := adhocradio.RandomLayered(1024, 64, 0.3, src)
//	res, err := adhocradio.Broadcast(g, adhocradio.NewOptimalRandomized(),
//	    adhocradio.Config{Seed: 7}, adhocradio.Options{})
//	fmt.Println(res.BroadcastTime, err)
package adhocradio

import (
	"context"
	"io"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/experiment"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/lowerbound"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
	"adhocradio/internal/sequences"
	"adhocradio/internal/trace"
)

// Core model types, aliased from the internal packages so downstream users
// can hold and construct them through the public API.
type (
	// Graph is a radio network topology; node 0 is the broadcast source.
	Graph = graph.Graph
	// Config is the a-priori knowledge shared by all nodes (label bound R,
	// randomness seed).
	Config = radio.Config
	// Options controls a simulation run.
	Options = radio.Options
	// FaultPlan is a deterministic, composable fault-injection plan (link
	// loss, topology churn, jammers, crash and sleep-wake schedules);
	// attach one via Options.Fault. See internal/fault for the semantics.
	FaultPlan = fault.Plan
	// Result reports a completed broadcast simulation.
	Result = radio.Result
	// Message is a successful reception.
	Message = radio.Message
	// Protocol builds per-node programs.
	Protocol = radio.Protocol
	// NodeProgram is the state machine run at one node.
	NodeProgram = radio.NodeProgram
	// Runner is a reusable simulation engine: it owns all per-run scratch,
	// so a trial loop that reuses one allocates nothing in steady state.
	Runner = radio.Runner
	// CSR is a graph's flat-array adjacency, laid out once when the graph
	// is built (see Graph.Compile).
	CSR = graph.CSR
	// DeterministicProtocol marks protocols the Section 3 adversary can
	// attack.
	DeterministicProtocol = radio.DeterministicProtocol
	// Rand is the deterministic random source used across the library.
	Rand = rng.Source
	// RandomizedParams configures the optimal randomized algorithm.
	RandomizedParams = core.Params
	// AdversaryParams configures the Theorem 2 construction.
	AdversaryParams = lowerbound.Params
	// AdversarialNetwork is the Theorem 2 construction's output.
	AdversarialNetwork = lowerbound.Construction
	// UniversalSequence is a Lemma 1 universal probability sequence.
	UniversalSequence = sequences.Universal
	// ExperimentConfig scopes a reproduction experiment run.
	ExperimentConfig = experiment.Config
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = experiment.Table
	// Collector accumulates per-step statistics from a simulation.
	Collector = trace.Collector
	// Progress describes how a broadcast advanced through the BFS layers.
	Progress = trace.Progress
	// Energy summarizes per-node transmission counts.
	Energy = trace.Energy
)

// NewCollector returns a fresh trace collector; pass its Hook as
// Options.Trace.
func NewCollector() *Collector { return &trace.Collector{} }

// AnalyzeProgress derives layer-completion times and the informed-fraction
// timeline from a finished run.
func AnalyzeProgress(g *Graph, res *Result) (*Progress, error) {
	return trace.AnalyzeProgress(g, res)
}

// LayerHeatmap renders a per-layer/time heatmap of when each BFS layer was
// informed (one row per layer).
func LayerHeatmap(p *Progress, layers [][]int, informedAt []int, width int) string {
	return trace.LayerHeatmap(p, layers, informedAt, width)
}

// NewRand returns a seeded deterministic random source.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Broadcast simulates protocol p on network g until every node holds the
// source message (or the step budget runs out, reported via
// ErrBudgetExhausted). It is BroadcastContext with a background context;
// use the context variant to cancel in-flight simulations.
func Broadcast(g *Graph, p Protocol, cfg Config, opt Options) (*Result, error) {
	return BroadcastContext(context.Background(), g, p, cfg, opt)
}

// NewRunner returns a reusable simulation engine. One Runner run at a time;
// hold one per goroutine (or pool them) for allocation-free trial loops:
//
//	r := adhocradio.NewRunner()
//	var res adhocradio.Result
//	for seed := uint64(1); seed <= trials; seed++ {
//	    if err := r.RunInto(&res, g, p, adhocradio.Config{Seed: seed}, opt); err != nil { ... }
//	    // consume res before the next RunInto overwrites it
//	}
func NewRunner() *Runner { return radio.NewRunner() }

// DefaultMaxSteps returns the default simulation budget for n nodes.
func DefaultMaxSteps(n int) int { return radio.DefaultMaxSteps(n) }

// WithContractChecks wraps a protocol so every node program asserts the
// simulator↔program calling contract at run time; violations go to report.
// Protocol authors run their implementations through this wrapper in tests.
func WithContractChecks(p Protocol, report func(error)) Protocol {
	return radio.WithContractChecks(p, report)
}

// Protocols.

// NewOptimalRandomized returns Algorithm Optimal-Randomized-Broadcasting
// (Section 2) with simulation-scale constants. Expected broadcast time
// O(D log(n/D) + log²n).
func NewOptimalRandomized() Protocol { return core.New() }

// NewOptimalRandomizedWithParams returns the Section 2 algorithm with
// explicit constants (use core.PaperStageFactor and
// core.PaperFallbackFactor via RandomizedParams for the paper's exact
// published constants).
func NewOptimalRandomizedWithParams(p RandomizedParams) Protocol {
	return core.NewWithParams(p)
}

// NewDecay returns the Bar-Yehuda–Goldreich–Itai randomized baseline.
func NewDecay() Protocol { return decay.New() }

// NewRoundRobin returns the deterministic O(nD) round-robin baseline.
func NewRoundRobin() DeterministicProtocol { return det.RoundRobin{} }

// NewSelectAndSend returns Algorithm Select-and-Send (Section 4.2),
// deterministic O(n log n).
func NewSelectAndSend() DeterministicProtocol { return det.SelectAndSend{} }

// NewCompleteLayered returns Algorithm Complete-Layered (Section 4.3),
// deterministic O(n + D log n) on complete layered networks.
func NewCompleteLayered() DeterministicProtocol { return det.CompleteLayered{} }

// NewInterleaved alternates two protocols on odd/even steps (Section 4.2);
// interleaving round-robin with Select-and-Send yields O(n·min(D, log n)).
func NewInterleaved(a, b Protocol) Protocol { return det.NewInterleaved(a, b) }

// NewDFSNeighborhood returns the linear-time DFS broadcast of the stronger
// knowledge model where nodes know their neighbors' labels (Section 1.1,
// following [2]); it completes within 2n steps on any network.
func NewDFSNeighborhood() DeterministicProtocol { return det.DFSNeighborhood{} }

// NewSpontaneousLinear returns the O(n) deterministic broadcast of the
// spontaneous-transmission model (Section 1.1, following [7]): one label
// announcement per step discovers every neighborhood, then a DFS token
// finishes within 2n further steps.
func NewSpontaneousLinear() DeterministicProtocol { return det.SpontaneousLinear{} }

// Topology generators. All label the source 0; all returned graphs are
// broadcastable.

// Path returns the n-node path.
func Path(n int) *Graph { return graph.Path(n) }

// Star returns the n-node star with the source at the center.
func Star(n int) *Graph { return graph.Star(n) }

// Clique returns the complete graph on n nodes.
func Clique(n int) *Graph { return graph.Clique(n) }

// Grid returns the rows×cols grid with the source at a corner.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// CompleteLayeredNetwork returns the complete layered network with the
// given layer sizes (layer 0 is the source alone).
func CompleteLayeredNetwork(sizes []int) (*Graph, error) { return graph.CompleteLayered(sizes) }

// UniformCompleteLayered returns an n-node complete layered network of
// radius d with near-equal layers.
func UniformCompleteLayered(n, d int) (*Graph, error) { return graph.UniformCompleteLayered(n, d) }

// RandomLayered returns a connected layered network with n nodes, radius
// exactly d, and extra edge density p.
func RandomLayered(n, d int, p float64, src *Rand) (*Graph, error) {
	return graph.RandomLayered(n, d, p, src)
}

// DirectedLayered returns a directed layered network (Section 2 setting).
func DirectedLayered(n, d int, p float64, src *Rand) (*Graph, error) {
	return graph.DirectedLayered(n, d, p, src)
}

// GNPConnected returns a connected Erdős–Rényi-style graph.
func GNPConnected(n int, p float64, src *Rand) *Graph { return graph.GNPConnected(n, p, src) }

// RandomTree returns a uniformly random labelled tree.
func RandomTree(n int, src *Rand) *Graph { return graph.RandomTree(n, src) }

// UnitDisk returns an ad hoc unit-disk deployment in the unit square,
// patched to be connected.
func UnitDisk(n int, radius float64, src *Rand) *Graph { return graph.UnitDisk(n, radius, src) }

// StarChain returns the wide-fan-in chain used by the universal-sequence
// ablation.
func StarChain(d, w int) *Graph { return graph.StarChain(d, w) }

// Caterpillar returns a spine of length d with legs leaves per spine node.
func Caterpillar(d, legs int) *Graph { return graph.Caterpillar(d, legs) }

// Cycle returns the n-node cycle (n >= 3).
func Cycle(n int) (*Graph, error) { return graph.Cycle(n) }

// Wheel returns the n-node wheel with the source at the hub (n >= 4).
func Wheel(n int) (*Graph, error) { return graph.Wheel(n) }

// CompleteBinaryTree returns the complete binary tree with the given number
// of levels (root = source).
func CompleteBinaryTree(levels int) (*Graph, error) { return graph.CompleteBinaryTree(levels) }

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
func Hypercube(dim int) (*Graph, error) { return graph.Hypercube(dim) }

// Barbell returns two k-cliques joined by a path of bridge edges.
func Barbell(k, bridge int) (*Graph, error) { return graph.Barbell(k, bridge) }

// RandomRegular returns a connected random d-regular graph (n·d even).
func RandomRegular(n, d int, src *Rand) (*Graph, error) { return graph.RandomRegular(n, d, src) }

// WorstLabelCompleteLayered returns a complete layered network whose first
// layer carries the highest labels, making label-scanning bootstraps pay
// their Θ(n) worst case.
func WorstLabelCompleteLayered(n, d int) (*Graph, error) {
	return graph.WorstLabelCompleteLayered(n, d)
}

// The Theorem 2 adversary.

// BuildAdversarialNetwork runs the Section 3 construction against a
// deterministic protocol, returning a network on which it needs
// Ω(n log n / log(n/D)) steps.
func BuildAdversarialNetwork(p DeterministicProtocol, params AdversaryParams) (*AdversarialNetwork, error) {
	return lowerbound.Build(p, params)
}

// VerifyAdversarialNetwork replays the protocol on the constructed network
// and checks the executable Lemma 9 (abstract histories = real histories).
func VerifyAdversarialNetwork(p DeterministicProtocol, c *AdversarialNetwork, maxSteps int) (*Result, error) {
	return lowerbound.VerifyRealRun(p, c, maxSteps)
}

// DirectedAdversaryParams configures the directed layered adversary.
type DirectedAdversaryParams = lowerbound.DirectedParams

// DirectedAdversarialNetwork is the output of the directed layered game.
type DirectedAdversarialNetwork = lowerbound.DirectedConstruction

// BuildDirectedAdversarialNetwork plays the [10]-style layer-composition
// game against an oblivious or forward-only deterministic protocol,
// producing a directed complete layered network on which it is slow (the
// Section 4.3 contrast: the directed hardness is real, while undirected
// feedback algorithms escape it).
func BuildDirectedAdversarialNetwork(p DeterministicProtocol, params DirectedAdversaryParams) (*DirectedAdversarialNetwork, error) {
	return lowerbound.BuildDirectedLayered(p, params)
}

// VerifyDirectedAdversarialNetwork replays the protocol on the directed
// construction and checks its informed-times against reality.
func VerifyDirectedAdversarialNetwork(p DeterministicProtocol, c *DirectedAdversarialNetwork, maxSteps int) (*Result, error) {
	return lowerbound.VerifyDirectedRealRun(p, c, maxSteps)
}

// NewObliviousDecay returns the seeded deterministic Decay-style oblivious
// schedule: transmission is a fixed hash of (label, step). It needs no
// feedback, so it broadcasts on directed networks too.
func NewObliviousDecay(seed uint64) DeterministicProtocol { return det.ObliviousDecay{Seed: seed} }

// Universal sequences (Lemma 1).

// BuildUniversalSequence constructs the Lemma 1 sequence for label bound r
// and radius d (powers of two), exactly within the lemma's validity window.
func BuildUniversalSequence(r, d int) (*UniversalSequence, error) { return sequences.Build(r, d) }

// BuildUniversalSequenceRelaxed clamps out-of-window levels so small-scale
// parameters still yield a verified sequence.
func BuildUniversalSequenceRelaxed(r, d int) (*UniversalSequence, error) {
	return sequences.BuildRelaxed(r, d)
}

// Experiments E1–E17.

// Experiments lists the registered reproduction experiments.
func Experiments() []experiment.Experiment { return experiment.Registry() }

// RunExperiment runs one experiment by ID ("E1".."E17") and renders its
// table to w.
func RunExperiment(id string, cfg ExperimentConfig, w io.Writer) (*ExperimentTable, error) {
	return RunExperimentContext(context.Background(), id, cfg, w)
}

// RunExperimentContext is RunExperiment with cancellation: a cancelled ctx
// stops the run between measurement points. Set cfg.Parallel to shard
// independent points and trials across workers — the engine derives every
// random stream from (cfg.Seed, point/trial index), so the table is
// bit-identical for every worker count.
func RunExperimentContext(ctx context.Context, id string, cfg ExperimentConfig, w io.Writer) (*ExperimentTable, error) {
	e, err := experiment.ByID(id)
	if err != nil {
		return nil, err
	}
	tab, err := e.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return tab, nil
}
