package radio

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"adhocradio/internal/bitset"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/obs"
)

// Runner is a reusable simulation engine. It owns every piece of per-run
// scratch the hot loop needs — reception counters, last-sender table,
// half-duplex flags, the program table, transmitter/payload buffers — so
// repeated trials on same-sized graphs perform zero steady-state allocations
// beyond whatever the protocol's own NewNode does. The zero value is ready
// to use; the package-level Run is a thin wrapper that spins up a fresh
// Runner per call.
//
// The engine walks the graph's CSR adjacency (graph.Compile): the flat
// int32 arrays every graph is laid out in when it is built. Per step it
// picks one of three tally strategies by the transmitters' total out-degree
// and the graph's density: a sparse path that tracks only the nodes
// actually hit (cost proportional to arcs touched), a dense scalar path
// that tallies branch-free into the counter array and then sweeps all
// nodes (cost arcs + n, cheaper once the arcs touched exceed n), and — on
// dense graphs — a bit-parallel kernel that ORs the bitmap adjacency rows
// built with every dense graph (graph.CompileBitmap) into two saturating
// bitplanes, 64 receivers per ALU op (see tallyBitset and the DESIGN.md
// dispatch table). Every strategy hands deliver the unique sender of each
// receiver that heard exactly one transmitter, so payloads take one path.
// All orders of delivery are observationally identical: node programs are
// isolated state machines, so no program can see the order in which other
// nodes were served within a step.
//
// Phase 1 asks only the nodes that can act. A program that is a Waker
// names the next step at which Act could do anything, and the engine skips
// it until then; every other program is asked at every step. Node faults
// (crash and sleep) are checked in phase 1 and in deliver, so plans with
// only those run on the same three tallies; plans with per-arc faults
// (link loss, churn, jammers) take tallyFaulty.
//
// A Runner must not be used from multiple goroutines at once. Parallel
// harnesses give each worker its own Runner (or draw from a pool); the
// simulation itself stays deterministic because a Runner carries no state
// across runs that a Result could observe.
//
// Every slice/map field below is scratch and must be reset by the poison
// branch in ensure (see the scratchreset pass).
//
//radiolint:scratch-owner
type Runner struct {
	// Per-node scratch, grown to the largest graph seen. Between runs (and
	// between steps) hits and transmitted are all-zero/false; every step
	// restores that invariant for exactly the entries it touched.
	hits        []int32     // receptions tallied in the current step
	lastFrom    []int32     // transmitter index of the most recent hitter
	transmitted []bool      // half-duplex: transmitted in the current step
	dirty       []int32     // nodes hit this step (sparse path only)
	nodes       []nodeState // informed nodes' programs and wake steps

	// Bitplane scratch for the bit-parallel tally kernel (tallyBitset),
	// each bitset.Words(n) long. Between steps all three are all-zero; the
	// kernel restores that invariant on the way out of every step it runs.
	hitOnce  []uint64 // bit v: v heard >= 1 transmitter this step
	hitTwice []uint64 // bit v: v heard >= 2 transmitters this step
	txPlane  []uint64 // bit v: v transmitted this step (half-duplex mask)

	// Fault-injection scratch, used only when a run carries an active
	// fault.Plan: jammed marks nodes in a noisy jammer's shadow this step
	// (cleared via jamDirty on the way out), and faults is the compiled
	// per-run fault state, reused across runs via Reset.
	jammed   []bool
	jamDirty []int32
	faults   *fault.State

	// Step buffers, pre-sized to the node count (a step can have at most n
	// transmitters and n receptions) so first steps never grow-copy.
	active       []int
	transmitters []int
	payloads     []any
	receptions   []Message

	// counters accumulates engine observables across every run on this
	// Runner (it is NOT scratch and survives the poison rebuild): plain
	// int64 increments in the hot loop, mirrored independently by
	// RunReferenceObserved so the differential battery gates their
	// semantics. Snapshot with Counters(), window with Counters().Diff.
	counters obs.Counters

	// Run-scoped state; cleared by finish so a pooled Runner does not pin
	// graphs or programs alive between trials.
	res           *Result
	g             *graph.Graph
	p             Protocol
	na            NeighborAwareProtocol
	cfg           Config
	opt           Options
	fs            *fault.State // the run's active fault plan; nil when clean
	spontaneous   bool
	informedCount int
	running       bool
}

// NewRunner returns an empty engine. Scratch is allocated lazily on the
// first run and reused afterwards.
func NewRunner() *Runner { return &Runner{} }

// Counters returns the engine counters accumulated across every run this
// Runner has executed (including partial, step-limited runs). For a
// per-run window, snapshot before the run and Diff after it.
func (r *Runner) Counters() obs.Counters { return r.counters }

// ResetCounters zeroes the accumulated engine counters.
func (r *Runner) ResetCounters() { r.counters = obs.Counters{} }

// Run simulates protocol p on network g, allocating a fresh Result. See the
// package-level Run for the semantics; the only difference is scratch reuse
// across calls on the same Runner.
func (r *Runner) Run(g *graph.Graph, p Protocol, cfg Config, opt Options) (*Result, error) {
	return r.RunContext(context.Background(), g, p, cfg, opt)
}

// RunContext is Run honoring ctx: cancellation is checked between steps and
// aborts the simulation with an error wrapping ctx.Err(). A cancelled run
// returns a nil Result (only step-limit errors carry a usable partial one).
func (r *Runner) RunContext(ctx context.Context, g *graph.Graph, p Protocol, cfg Config, opt Options) (*Result, error) {
	res := new(Result)
	err := r.RunIntoContext(ctx, res, g, p, cfg, opt)
	if err != nil && !errors.Is(err, ErrStepLimit) {
		return nil, err
	}
	return res, err
}

// RunInto is Run writing into a caller-owned Result, reusing its InformedAt
// slice when the capacity suffices — the zero-allocation entry point for
// tight trial loops. On a step-limit error the partially-filled Result is
// left in place; on validation errors res is untouched.
func (r *Runner) RunInto(res *Result, g *graph.Graph, p Protocol, cfg Config, opt Options) error {
	return r.RunIntoContext(context.Background(), res, g, p, cfg, opt)
}

// RunIntoContext is RunInto honoring ctx, the cancellable zero-allocation
// entry point service handlers use for in-flight simulations. Cancellation
// is checked between steps (the same granularity RunExperimentContext uses
// between measurement points): the run stops before the next step begins,
// the error wraps ctx.Err() so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) discriminate the cause, and the
// partially-filled Result reports the steps actually simulated. The
// background context costs one predictable nil check per step, so the
// steady-state allocation and throughput contracts are unchanged.
//
//radiolint:hotpath
func (r *Runner) RunIntoContext(ctx context.Context, res *Result, g *graph.Graph, p Protocol, cfg Config, opt Options) error {
	n := g.N()
	if n == 0 {
		return errors.New("radio: empty graph")
	}
	if cfg.N == 0 {
		cfg.N = n
	}
	if cfg.N != n {
		return fmt.Errorf("radio: cfg.N=%d does not match graph n=%d", cfg.N, n)
	}
	if opt.MaxSteps < 0 {
		return fmt.Errorf("radio: negative MaxSteps %d", opt.MaxSteps)
	}
	maxSteps := opt.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps(n)
	}
	// Compile the fault plan (validating it) before res is touched, so
	// validation errors leave the caller's Result intact.
	var fs *fault.State
	if opt.Fault != nil {
		if err := opt.Fault.Validate(n); err != nil {
			return err
		}
		if opt.Fault.Active() {
			if r.faults == nil {
				r.faults = fault.NewState()
			}
			if err := r.faults.Reset(opt.Fault, n); err != nil {
				return err
			}
			fs = r.faults
		}
	}
	csr := g.Compile()
	// On dense graphs (see graph.BitmapDense) the bit-parallel tally kernel
	// is in play: fetch the bitmap adjacency built with the graph up front so
	// the hot loop only dispatches on per-step transmitter counts.
	var bm *graph.Bitmap
	if graph.BitmapDense(n, csr.Arcs()) {
		bm = g.CompileBitmap()
	}
	r.ensure(n, opt)
	arcFaults := fs != nil && fs.ArcFaults()
	if arcFaults {
		if cap(r.jammed) < n {
			r.jammed = make([]bool, n)
			r.jamDirty = make([]int32, 0, n)
		}
		r.jammed = r.jammed[:n]
	}

	informed := res.InformedAt
	if cap(informed) < n {
		informed = make([]int, n)
	}
	informed = informed[:n]
	for i := range informed {
		informed[i] = -1
	}
	*res = Result{BroadcastTime: -1, InformedAt: informed}
	res.InformedAt[0] = 0

	r.res, r.g, r.p, r.cfg, r.opt, r.fs = res, g, p, cfg, opt, fs
	r.na, _ = p.(NeighborAwareProtocol)
	r.spontaneous = false
	if sp, ok := p.(SpontaneousProtocol); ok && sp.Spontaneous() {
		r.spontaneous = true
	}
	r.active = r.active[:0]
	r.active = append(r.active, 0)
	r.install(0)
	r.informedCount = 1
	if r.spontaneous {
		for v := 1; v < n; v++ {
			r.install(v)
			r.active = append(r.active, v)
		}
	}
	for _, v := range r.active {
		r.nodes[v].rehint(1)
	}

	outOff, outAdj := csr.OutOff, csr.OutAdj
	for t := 1; ; t++ {
		if r.informedCount == n && !opt.RunToMaxSteps {
			break
		}
		if t > maxSteps {
			if r.informedCount == n {
				break
			}
			res.StepsSimulated = t - 1
			informedCount := r.informedCount
			r.finish()
			return fmt.Errorf("%w after %d steps (%d/%d informed, protocol %s)",
				ErrStepLimit, maxSteps, informedCount, n, p.Name())
		}
		if err := ctx.Err(); err != nil {
			// Between-steps cancellation: the scratch invariants hold (no
			// step is in flight), so finish() parks the engine cleanly and
			// the next run on this Runner needs no poison rebuild.
			res.StepsSimulated = t - 1
			informedCount := r.informedCount
			r.finish()
			return fmt.Errorf("radio: run cancelled after %d steps (%d/%d informed, protocol %s): %w",
				t-1, informedCount, n, p.Name(), err)
		}

		// Phase 1: collect transmitters among active nodes, tracking the
		// total out-degree (to pick the tally strategy). Nodes a fault plan
		// has down (crashed or asleep) are not consulted at all; a node
		// whose wake step lies ahead is not asked either, but the fault
		// check comes first, so every polled down node is counted and one
		// asleep at its wake step stays due.
		r.transmitters = r.transmitters[:0]
		r.payloads = r.payloads[:0]
		arcs := 0
		for _, v := range r.active {
			if fs != nil && fs.NodeDown(t, v) {
				// Mirror rule: RunReferenceObserved discriminates the same
				// way, so the crash/sleep counters gate differentially.
				if fs.Crashed(t, v) {
					r.counters.CrashSkips++
				} else {
					r.counters.SleepSkips++
				}
				continue
			}
			nd := &r.nodes[v]
			if nd.wake > t {
				continue
			}
			tx, payload := nd.prog.Act(t)
			nd.rehint(t + 1)
			if tx {
				r.transmitters = append(r.transmitters, v)
				r.payloads = append(r.payloads, payload)
				r.transmitted[v] = true
				arcs += int(outOff[v+1] - outOff[v])
			}
		}
		res.Transmissions += int64(len(r.transmitters))
		r.counters.Transmissions += int64(len(r.transmitters))
		if len(r.transmitters) == 0 {
			r.counters.SilentSteps++
		}

		// Phases 2+3: tally receptions over the flat CSR arrays, then
		// deliver. hits is restored to all-zero on the way out. Runs with
		// per-arc faults take their own tally (loss checks and jam marks);
		// the scalar paths below stay branch-free, and deliver drops what a
		// down receiver would have heard on every path.
		r.receptions = r.receptions[:0]
		hits, lastFrom := r.hits, r.lastFrom
		if arcFaults {
			r.tallyFaulty(t, n, outOff, outAdj, fs)
		} else if bm != nil && arcs >= n &&
			arcs >= bitsetArcFactor*len(r.transmitters)*bm.WordsPerRow {
			// Bit-parallel path: word-wise two-plane accumulation over the
			// graph's bitmap rows, taken when the scalar per-arc work
			// exceeds the kernel's per-word work by the measured crossover
			// factor.
			r.tallyBitset(t, bm)
		} else if arcs >= n {
			// Dense path: branch-free saturating-by-construction counters
			// (a step has at most n-1 in-transmitters per node), then a
			// full sweep.
			for i, u := range r.transmitters {
				for _, v := range outAdj[outOff[u]:outOff[u+1]] {
					hits[v]++
					lastFrom[v] = int32(i)
				}
			}
			for v := 0; v < n; v++ {
				h := hits[v]
				if h == 0 {
					continue
				}
				hits[v] = 0
				if r.transmitted[v] {
					continue // half-duplex: transmitters hear nothing
				}
				r.deliver(t, v, h, false)
			}
		} else {
			// Sparse path: track first-touch nodes so the sweep visits only
			// what was hit.
			dirty := r.dirty[:0]
			for i, u := range r.transmitters {
				for _, v := range outAdj[outOff[u]:outOff[u+1]] {
					if hits[v] == 0 {
						dirty = append(dirty, v)
						lastFrom[v] = int32(i)
					}
					hits[v]++
				}
			}
			r.dirty = dirty
			for _, v32 := range dirty {
				v := int(v32)
				h := hits[v]
				hits[v] = 0
				if r.transmitted[v] {
					continue // half-duplex: transmitters hear nothing
				}
				r.deliver(t, v, h, false)
			}
		}
		for _, u := range r.transmitters {
			r.transmitted[u] = false
		}

		if r.informedCount == n && res.BroadcastTime == -1 {
			res.BroadcastTime = t
		}
		if opt.Trace != nil {
			opt.Trace(t, r.transmitters, r.receptions)
		}
		res.StepsSimulated = t
		r.counters.Steps++
	}

	res.Completed = r.informedCount == n
	if n == 1 {
		res.BroadcastTime = 0
		res.Completed = true
	}
	r.finish()
	return nil
}

// bitsetArcFactor is the dispatch crossover between the dense scalar tally
// and the bit-parallel kernel: the kernel runs when the transmitters' total
// out-degree is at least this many times T*words (T transmitters, words =
// bitset.Words(n) per bitplane). Per transmitter the scalar path costs
// ~out-degree counter increments while the kernel costs ~3*words word ops
// for the accumulate plus ~words for the lastFrom second pass, so the
// crossover is a pure degree-vs-words ratio. BenchmarkTallyCrossover
// measures it (table in DESIGN.md): break-even at mean degree ≈ 2·words,
// with the kernel 2.1x ahead by 4·words and 22x ahead at clique density.
// 3 sits just above break-even so the kernel only fires on clear wins.
const bitsetArcFactor = 3

// tallyBitset is the bit-parallel tally: each transmitter's out-neighborhood
// is one row of the graph's bitmap adjacency, and per-receiver hit
// counts saturate at two in a pair of bitplanes —
//
//	hitTwice |= hitOnce & row
//	hitOnce  |= row
//
// — so after T row accumulations (T·words word ops instead of Σ out-degree
// scalar increments), "exactly one hit" and "collision" fall out as word-wise
// boolean masks. Half-duplex is a third plane ANDed out of both. A short
// scalar second pass over the transmitters' rows resolves lastFrom for the
// exactly-one words only (each such bit has a unique covering row, so the
// write is unambiguous); collision words never need transmitter identity.
// That is all deliver needs to route the unique sender's payload, so the
// kernel serves every step without per-arc faults whatever the payloads
// (deliver also drops down receivers under crash and sleep plans). Delivery
// iterates set bits in ascending node order, matching the dense scalar
// sweep. RunReferenceObserved routes payloads on its own, so the
// differential battery and the fuzz targets gate this kernel end-to-end.
//
// All three planes are all-zero on entry and restored to all-zero on the
// way out, the same touched-entries invariant the scalar paths keep on hits.
//
//radiolint:hotpath
func (r *Runner) tallyBitset(t int, bm *graph.Bitmap) {
	once, twice, tx := r.hitOnce, r.hitTwice, r.txPlane
	for _, u := range r.transmitters {
		bitset.AccumulateTwoPlane(once, twice, bm.OutRow(u))
		bitset.Mark(tx, u)
	}
	// Reduce to listener-only masks: once becomes "exactly one hit", twice
	// "two or more hits", both excluding half-duplex transmitters.
	for w := range once {
		once[w] &^= twice[w] | tx[w]
		twice[w] &^= tx[w]
	}
	lastFrom := r.lastFrom
	for i, u := range r.transmitters {
		row := bm.OutRow(u)
		for w, rw := range row {
			m := rw & once[w]
			for m != 0 {
				lastFrom[w<<6+bits.TrailingZeros64(m)] = int32(i)
				m &= m - 1
			}
		}
	}
	for w, m := range once {
		for m != 0 {
			v := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			r.deliver(t, v, 1, false)
		}
	}
	for w, m := range twice {
		for m != 0 {
			v := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			r.deliver(t, v, 2, false)
		}
	}
	bitset.Zero(once)
	bitset.Zero(twice)
	bitset.Zero(tx)
}

// tallyFaulty is the tally for plans with per-arc faults (fault.State's
// ArcFaults): sparse-style first-touch tracking with a per-arc LinkDown
// check and jam-noise marks from the plan's jammers. Semantics (mirrored
// exactly by RunReferenceObserved): a dropped arc contributes no hit; jam
// noise turns a single legitimate hit into a collision but is itself
// indistinguishable from silence, so noise with zero legitimate hits
// produces no event at all. Down receivers are deliver's business, as on
// every other path.
//
//radiolint:hotpath
func (r *Runner) tallyFaulty(t, n int, outOff, outAdj []int32, fs *fault.State) {
	hits, lastFrom := r.hits, r.lastFrom
	dirty := r.dirty[:0]
	for i, u := range r.transmitters {
		for _, v32 := range outAdj[outOff[u]:outOff[u+1]] {
			v := int(v32)
			if fs.LinkDown(t, u, v) {
				r.counters.LinksDropped++
				continue
			}
			if hits[v] == 0 {
				dirty = append(dirty, v32)
				lastFrom[v] = int32(i)
			}
			hits[v]++
		}
	}
	r.dirty = dirty
	jamDirty := r.jamDirty[:0]
	for _, j := range fs.JammerNodes() {
		if !fs.JamAt(t, int(j)) {
			continue
		}
		r.counters.JamNoise++
		for _, v := range outAdj[outOff[j]:outOff[j+1]] {
			if !r.jammed[v] {
				r.jammed[v] = true
				jamDirty = append(jamDirty, v)
			}
		}
	}
	r.jamDirty = jamDirty
	for _, v32 := range dirty {
		v := int(v32)
		h := hits[v]
		hits[v] = 0
		if r.transmitted[v] {
			continue // half-duplex: transmitters hear nothing
		}
		r.deliver(t, v, h, r.jammed[v])
	}
	for _, v := range jamDirty {
		r.jammed[v] = false
	}
}

// deliver serves one non-transmitting node that was hit h times in step t:
// exactly one hit is a reception of the payload of its unique sender,
// transmitter index lastFrom[v], two or more a collision. A jammed
// receiver's single hit is destroyed by the noise and becomes a collision.
// A receiver the fault plan has down (crashed or asleep) hears nothing and
// counts nothing, whichever tally found it. A program that heard anything
// is asked for a new wake hint.
//
//radiolint:hotpath
func (r *Runner) deliver(t, v int, h int32, jammed bool) {
	if r.fs != nil && r.fs.NodeDown(t, v) {
		return
	}
	switch {
	case h == 1 && !jammed:
		i := r.lastFrom[v]
		payload := r.payloads[i]
		msg := Message{From: r.transmitters[i], Payload: payload}
		if r.res.InformedAt[v] == -1 {
			c, ok := payload.(SourceCarrier)
			carrier := !ok || c.CarriesSourceMessage()
			switch {
			case carrier:
				r.res.InformedAt[v] = t
				r.informedCount++
				if !r.spontaneous {
					r.install(v)
					r.active = append(r.active, v)
				}
			case !r.spontaneous:
				return // label-only traffic cannot inform or be acted on
			}
		}
		nd := &r.nodes[v]
		nd.prog.Deliver(t, msg)
		nd.rehint(t + 1)
		r.res.Receptions++
		r.counters.Receptions++
		if r.opt.Trace != nil {
			r.receptions = append(r.receptions, msg)
		}
	case h >= 2 || jammed:
		r.res.Collisions++
		r.counters.Collisions++
		if r.opt.CollisionDetection && r.res.InformedAt[v] != -1 {
			nd := &r.nodes[v]
			if cl, ok := nd.prog.(CollisionListener); ok {
				cl.DeliverCollision(t)
				nd.rehint(t + 1)
			}
		}
	}
}

// install builds node v's program and caches it as a Waker when it gives
// hints. A new program is due at once (wake step 0).
func (r *Runner) install(v int) {
	var prog NodeProgram
	if r.na != nil {
		prog = r.na.NewNodeWithNeighbors(v, neighborList(r.g.Out(v)), r.cfg)
	} else {
		prog = r.p.NewNode(v, r.cfg)
	}
	w, _ := prog.(Waker)
	r.nodes[v] = nodeState{prog: prog, waker: w}
}

// nodeState is an informed node's run state: its program, the program as
// a Waker (nil when it gives no hints), and the step at which it next needs
// Act. Programs that are not Wakers keep wake step 0, so they are asked at
// every step. One slot per node keeps the wake check on the cache line
// phase 1 loads for the program anyway.
type nodeState struct {
	prog  NodeProgram
	waker Waker
	wake  int
}

// rehint refreshes the wake step from the program's hint for steps >= t.
//
//radiolint:hotpath
func (nd *nodeState) rehint(t int) {
	if nd.waker != nil {
		nd.wake = nd.waker.NextAct(t)
	}
}

// ensure sizes every scratch buffer for an n-node graph. Counters are
// pre-sized from the graph, and step buffers get capacity n up front, so
// even a first step with n transmitters on a dense graph never grow-copies.
func (r *Runner) ensure(n int, opt Options) {
	if r.running {
		// The previous run unwound mid-step (a panicking program); the
		// between-steps all-zero invariant on hits/transmitted may not
		// hold, so rebuild every scratch buffer rather than trust any of
		// them — the sizing code below re-allocates on demand.
		//radiolint:scratch-rebuild
		r.hits, r.lastFrom, r.transmitted, r.dirty = nil, nil, nil, nil
		r.hitOnce, r.hitTwice, r.txPlane = nil, nil, nil
		r.jammed, r.jamDirty = nil, nil
		r.nodes, r.active = nil, nil
		r.transmitters, r.payloads, r.receptions = nil, nil, nil
	}
	r.running = true
	if cap(r.hits) < n {
		r.hits = make([]int32, n)
		r.lastFrom = make([]int32, n)
		r.transmitted = make([]bool, n)
	}
	r.hits = r.hits[:n]
	r.lastFrom = r.lastFrom[:n]
	r.transmitted = r.transmitted[:n]
	words := bitset.Words(n)
	if cap(r.hitOnce) < words {
		r.hitOnce = make([]uint64, words)
		r.hitTwice = make([]uint64, words)
		r.txPlane = make([]uint64, words)
	}
	r.hitOnce = r.hitOnce[:words]
	r.hitTwice = r.hitTwice[:words]
	r.txPlane = r.txPlane[:words]
	if cap(r.dirty) < n {
		r.dirty = make([]int32, 0, n)
	}
	if cap(r.nodes) < n {
		r.nodes = make([]nodeState, n)
	}
	r.nodes = r.nodes[:n]
	clear(r.nodes)
	if cap(r.active) < n {
		r.active = make([]int, 0, n)
	}
	if cap(r.transmitters) < n {
		r.transmitters = make([]int, 0, n)
		r.payloads = make([]any, 0, n)
	}
	if opt.Trace != nil && cap(r.receptions) < n {
		r.receptions = make([]Message, 0, n)
	}
}

// finish drops every run-scoped reference so a parked Runner pins neither
// programs, payloads, nor the graph, and marks the run cleanly ended.
func (r *Runner) finish() {
	clear(r.nodes)
	payloads := r.payloads[:cap(r.payloads)]
	for i := range payloads {
		payloads[i] = nil
	}
	r.payloads = r.payloads[:0]
	receptions := r.receptions[:cap(r.receptions)]
	for i := range receptions {
		receptions[i] = Message{}
	}
	r.receptions = r.receptions[:0]
	r.active = r.active[:0]
	r.transmitters = r.transmitters[:0]
	r.dirty = r.dirty[:0]
	r.jamDirty = r.jamDirty[:0]
	r.res, r.g, r.p, r.na, r.fs = nil, nil, nil, nil, nil
	r.cfg, r.opt = Config{}, Options{}
	r.informedCount = 0
	r.running = false
}
