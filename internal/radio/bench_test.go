package radio

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"adhocradio/internal/bitset"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// Simulator micro-benchmarks: per-step cost under light (sparse
// transmitters) and heavy (everyone transmits) load, under a crash plan,
// engine reuse, the relative cost of the reference oracle, and the scalar
// CSR and bit-parallel tally kernels. Every benchmark reports ns/step next
// to ns/op so runs with different step budgets stay comparable. The
// deterministic protocols' benchmark lives in protocols_test.go, which can
// import internal/det.

// reportSteps attaches the per-step cost metric; call after the timed loop.
func reportSteps(b *testing.B, totalSteps int) {
	b.Helper()
	if totalSteps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalSteps), "ns/step")
	}
}

func benchRun(b *testing.B, g *graph.Graph, p Protocol, maxSteps int, plan *fault.Plan) {
	b.Helper()
	b.ReportAllocs()
	totalSteps := 0
	for i := 0; i < b.N; i++ {
		// Fixed step budget: measure per-step cost; the protocol may well
		// be incomplete at the cap.
		res, err := Run(g, p, Config{Seed: uint64(i + 1)},
			Options{MaxSteps: maxSteps, RunToMaxSteps: true, Fault: plan})
		if err != nil && !errors.Is(err, ErrStepLimit) {
			b.Fatal(err)
		}
		if res == nil || res.StepsSimulated == 0 {
			b.Fatal("no steps")
		}
		totalSteps += res.StepsSimulated
	}
	reportSteps(b, totalSteps)
}

func BenchmarkSimulatorSparseLoad(b *testing.B) {
	src := rng.New(1)
	g := graph.GNPConnected(1024, 4.0/1024, src)
	benchRun(b, g, coin{}, 200, nil)
}

// BenchmarkSimulatorCrashLoad is a sparse load under a crash-only plan:
// coin on GNPConnected(1024, 8/1024) with 2% of the nodes crashing within
// the first 1024 steps, at a fixed 200-step budget. Crash and sleep act on
// nodes, not arcs, so these steps take the clean tallies.
func BenchmarkSimulatorCrashLoad(b *testing.B) {
	g := graph.GNPConnected(1024, 8.0/1024, rng.New(1))
	benchRun(b, g, coin{}, 200, &fault.Plan{Seed: 1, CrashFrac: 0.02, CrashWindow: 1024})
}

// BenchmarkSimulatorDenseLoad is the dense saturation workload: every step
// floods ~256 transmitters over 65k arcs, each carrying a payload like every
// real protocol's, the shape of every tally-bound trial in the experiment
// harness. Every step takes the bit-parallel bitset kernel.
func BenchmarkSimulatorDenseLoad(b *testing.B) {
	g := graph.Clique(256)
	benchRun(b, g, flood{}, 50, nil)
}

// BenchmarkSimulatorRunnerReuse is the steady-state trial loop the
// experiment engine runs: one Runner, one Result, many trials on the same
// graph. With a protocol whose programs are zero-size and payloads nil, so
// that the protocol itself allocates nothing, the allocs/op column is the
// engine's own steady-state allocation count, which must be 0.
func BenchmarkSimulatorRunnerReuse(b *testing.B) {
	g := graph.Clique(256)
	r := NewRunner()
	var res Result
	if err := r.RunInto(&res, g, nilFlood{}, Config{}, Options{MaxSteps: 50, RunToMaxSteps: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	totalSteps := 0
	for i := 0; i < b.N; i++ {
		if err := r.RunInto(&res, g, nilFlood{}, Config{}, Options{MaxSteps: 50, RunToMaxSteps: true}); err != nil {
			b.Fatal(err)
		}
		totalSteps += res.StepsSimulated
	}
	reportSteps(b, totalSteps)
}

func BenchmarkSimulatorVsReference(b *testing.B) {
	src := rng.New(2)
	g := graph.GNPConnected(256, 0.05, src)
	// Fixed step budget: this measures per-step cost, not completion (the
	// coin protocol can stall on high-degree nodes).
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		totalSteps := 0
		for i := 0; i < b.N; i++ {
			res, err := Run(g, coin{}, Config{Seed: 7},
				Options{MaxSteps: 300, RunToMaxSteps: true})
			if err != nil && !errors.Is(err, ErrStepLimit) {
				b.Fatal(err)
			}
			totalSteps += res.StepsSimulated
		}
		reportSteps(b, totalSteps)
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		totalSteps := 0
		for i := 0; i < b.N; i++ {
			// The reference stops with ErrStepLimit at the budget; that is
			// the expected outcome here.
			res, _, err := RunReferenceObserved(g, coin{}, Config{Seed: 7}, 300, nil)
			if err != nil && !errors.Is(err, ErrStepLimit) {
				b.Fatal(err)
			}
			totalSteps += res.StepsSimulated
		}
		reportSteps(b, totalSteps)
	})
}

// The dense tally kernel, isolated: every node transmits on a clique, and
// the benchmark measures only phase 2 — counting hits over the adjacency.
// The CSR variant walks the flat int32 arrays exactly as the engine's
// dense path does; the bitset variant runs the bit-parallel kernel over
// the graph's bitmap rows.

// benchTallyDenseCSR times the engine's dense scalar tally (branch-free
// per-arc counters plus full clear) with the given transmitter set.
func benchTallyDenseCSR(b *testing.B, g *graph.Graph, transmitters []int) {
	b.Helper()
	csr := g.Compile()
	n := g.N()
	hits := make([]int32, n)
	lastFrom := make([]int32, n)
	outOff, outAdj := csr.OutOff, csr.OutAdj
	b.ReportAllocs()
	b.ResetTimer()
	for bi := 0; bi < b.N; bi++ {
		for i, u := range transmitters {
			for _, v := range outAdj[outOff[u]:outOff[u+1]] {
				hits[v]++
				lastFrom[v] = int32(i)
			}
		}
		for v := 0; v < n; v++ {
			hits[v] = 0
		}
	}
	_ = lastFrom
}

// benchTallyBitset times the bit-parallel tally exactly as tallyBitset runs
// it: two-plane accumulation over the cached bitmap rows, listener-only
// mask reduction, the scalar lastFrom second pass over exactly-one words,
// and the plane clear.
func benchTallyBitset(b *testing.B, g *graph.Graph, transmitters []int) {
	b.Helper()
	bm := g.CompileBitmap()
	n := g.N()
	words := bitset.Words(n)
	once := make([]uint64, words)
	twice := make([]uint64, words)
	tx := make([]uint64, words)
	lastFrom := make([]int32, n)
	b.ReportAllocs()
	b.ResetTimer()
	for bi := 0; bi < b.N; bi++ {
		for _, u := range transmitters {
			bitset.AccumulateTwoPlane(once, twice, bm.OutRow(u))
			bitset.Mark(tx, u)
		}
		for w := range once {
			once[w] &^= twice[w] | tx[w]
			twice[w] &^= tx[w]
		}
		for i, u := range transmitters {
			row := bm.OutRow(u)
			for w, rw := range row {
				m := rw & once[w]
				for m != 0 {
					lastFrom[w<<6+bits.TrailingZeros64(m)] = int32(i)
					m &= m - 1
				}
			}
		}
		bitset.Zero(once)
		bitset.Zero(twice)
		bitset.Zero(tx)
	}
	_ = lastFrom
}

// allTransmitters returns 0..n-1: the saturation transmitter set.
func allTransmitters(n int) []int {
	tr := make([]int, n)
	for v := range tr {
		tr[v] = v
	}
	return tr
}

func BenchmarkTallyDenseCSR(b *testing.B) {
	g := graph.Clique(256)
	benchTallyDenseCSR(b, g, allTransmitters(256))
}

// BenchmarkTallyBitset is BenchmarkTallyDenseCSR through the bit-parallel
// kernel: same clique, same saturation transmitter set, 64 receivers per
// word op instead of one per scalar op.
func BenchmarkTallyBitset(b *testing.B) {
	g := graph.Clique(256)
	benchTallyBitset(b, g, allTransmitters(256))
}

// BenchmarkTallyCrossover sweeps mean degree on a fixed node count with
// every node transmitting, pairing the dense scalar tally with the bitset
// kernel at each density. Per transmitter the scalar path costs ~out-degree
// ops and the kernel ~O(words) ops, so the crossover is a pure
// degree-vs-words ratio — this sweep is the measurement behind
// bitsetArcFactor (table in DESIGN.md).
func BenchmarkTallyCrossover(b *testing.B) {
	const n = 512
	src := rng.New(99)
	for _, deg := range []int{8, 16, 32, 64, 128, 511} {
		var g *graph.Graph
		if deg == 511 {
			g = graph.Clique(n)
		} else {
			g = graph.GNPConnected(n, float64(deg)/float64(n-1), src)
		}
		tr := allTransmitters(n)
		b.Run(fmt.Sprintf("deg%d/csr", deg), func(b *testing.B) {
			benchTallyDenseCSR(b, g, tr)
		})
		b.Run(fmt.Sprintf("deg%d/bitset", deg), func(b *testing.B) {
			benchTallyBitset(b, g, tr)
		})
	}
}
