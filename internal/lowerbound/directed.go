package lowerbound

import (
	"fmt"
	"sort"

	"adhocradio/internal/bitset"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
)

// DirectedParams configures BuildDirectedLayered.
type DirectedParams struct {
	// N is the largest label (N+1 nodes, source 0).
	N int
	// D is the number of layers (radius of the directed network).
	D int
	// MaxWaitSteps caps the per-layer delay game (0 = generous default).
	MaxWaitSteps int
}

// DirectedConstruction is the output of BuildDirectedLayered: a directed
// complete layered network adversarially composed for one protocol.
type DirectedConstruction struct {
	G *graph.Graph
	// Layers[i] is the label set of layer i+1 (layer 0 is the source).
	Layers [][]int
	// CrossAt[i] is the step at which layer i+1 was informed.
	CrossAt []int
	// InformedAt records construction-time informed steps; the equivalence
	// check replays the real run against it.
	InformedAt map[int]int
	// Removed counts candidates discarded across all delay games.
	Removed int
}

// Delay returns the total delay the adversary achieved: the step at which
// the last layer was informed.
func (c *DirectedConstruction) Delay() int {
	if len(c.CrossAt) == 0 {
		return 0
	}
	return c.CrossAt[len(c.CrossAt)-1]
}

// layerGame tracks one layer's delay game: the live candidate set, and for
// every game step the live members that transmitted, so that removals can
// be checked (and cascaded) against the whole past. The invariant is that
// no past step has exactly one transmitter among the CURRENT live set —
// sound because in a directed layered network nobody can observe a layer's
// transmissions until the next layer exists.
type layerGame struct {
	live    *bitset.Set
	size    int // live.Len()
	target  int
	records [][]int // per game step: live members that transmitted
	counts  []int   // per game step: |live ∩ Y| under current live
	stepsOf [][]int // by label: indices into records
}

func newLayerGame(candidates []int, target int) *layerGame {
	g := &layerGame{live: bitset.New(0), size: len(candidates), target: target}
	for _, c := range candidates {
		g.live.Add(c)
	}
	g.stepsOf = make([][]int, g.live.Max()+1)
	return g
}

// observe records this step's transmitters (within the live set) and
// returns (informer, true) when a singleton must stand — either because the
// live set is already at the target size, or because removing it would
// cascade below the target. Otherwise it prunes (possibly cascading) and
// returns (removedCount, false info) via the second return being false.
func (g *layerGame) observe(transmitting func(label int) bool) (informer int, crossed bool, removed int) {
	y := make([]int, 0, 4)
	g.live.ForEach(func(c int) bool {
		if transmitting(c) {
			y = append(y, c)
		}
		return true
	})
	idx := len(g.records)
	g.records = append(g.records, y)
	g.counts = append(g.counts, len(y))
	for _, m := range y {
		g.stepsOf[m] = append(g.stepsOf[m], idx)
	}
	if len(y) != 1 {
		return 0, false, 0
	}
	// Tentative batch removal with cascade. A member leaves the live set
	// when it joins the batch and the counts of its steps when the walk
	// reaches it; both come back if the singleton must stand.
	batch := []int{y[0]}
	g.live.Remove(y[0])
	for q := 0; q < len(batch); q++ {
		for _, i := range g.stepsOf[batch[q]] {
			if g.counts[i]--; g.counts[i] != 1 {
				continue
			}
			// Exactly one live, un-batched transmitter remains at step i:
			// it must go too.
			for _, cand := range g.records[i] {
				if g.live.Contains(cand) {
					batch = append(batch, cand)
					g.live.Remove(cand)
					break
				}
			}
		}
	}
	if g.size-len(batch) < g.target {
		// Cannot prune without dropping below the target: undo the
		// tentative removal, and the singleton stands. The layer crosses
		// now and the game ends, so this step's record is kept as it is.
		for _, m := range batch {
			g.live.Add(m)
			for _, i := range g.stepsOf[m] {
				g.counts[i]++
			}
		}
		return y[0], true, 0
	}
	for _, m := range batch {
		g.stepsOf[m] = nil
	}
	g.size -= len(batch)
	return 0, false, len(batch)
}

// frozen returns the final layer, sorted.
func (g *layerGame) frozen() []int {
	return g.live.Elements()
}

// BuildDirectedLayered plays the Clementi–Monti–Silvestri-style game of
// reference [10] (the directed Ω(n log D) bound the paper contrasts with in
// Section 4.3): the adversary commits the composition of each layer of a
// directed complete layered network only after watching the algorithm run.
//
// Layer i+1's candidates are all unplaced labels; they are all informed by
// layer i's standing singleton transmission and then simulated live.
// Whenever exactly one live candidate transmits — which would inform the
// next layer — the adversary removes it (cascading removals that would
// retroactively create earlier singletons for the remaining set), which is
// consistent because in a directed network nobody can yet observe the
// layer's transmissions. When pruning would shrink the layer below its
// target size, the singleton stands and the front advances.
//
// Feedback-based algorithms (Select-and-Send, Complete-Layered) deadlock on
// directed layered networks — their Echo needs the back-edges whose absence
// is exactly why the paper's undirected refutation of [10]'s claim does not
// carry over to directed graphs. Attack oblivious or forward-only
// protocols (round-robin, oblivious decay schedules).
func BuildDirectedLayered(p radio.DeterministicProtocol, params DirectedParams) (*DirectedConstruction, error) {
	if !p.Deterministic() {
		return nil, fmt.Errorf("lowerbound: protocol %s does not declare determinism", p.Name())
	}
	if _, ok := radio.Protocol(p).(radio.NeighborAwareProtocol); ok {
		return nil, fmt.Errorf("lowerbound: protocol %s requires neighborhood knowledge", p.Name())
	}
	if sp, ok := radio.Protocol(p).(radio.SpontaneousProtocol); ok && sp.Spontaneous() {
		return nil, fmt.Errorf("lowerbound: protocol %s uses spontaneous transmissions", p.Name())
	}
	n, d := params.N, params.D
	if d < 1 || n < 2*d {
		return nil, fmt.Errorf("lowerbound: need D >= 1 and n >= 2D (got n=%d, D=%d)", n, d)
	}
	maxWait := params.MaxWaitSteps
	if maxWait == 0 {
		maxWait = 64 * n * (2 + intLog2(n))
	}

	cons := &DirectedConstruction{InformedAt: map[int]int{0: 0}}
	// The construction never reads G while it runs (frozen layers are
	// simulated from cons.Layers), so its arcs go straight to a builder.
	edges := graph.NewBuilder(n+1, false)
	r := newReplay(p, radio.Config{N: n + 1, R: n}, n)
	r.start(0)

	pool := bitset.New(n + 1)
	for lbl := 1; lbl <= n; lbl++ {
		pool.Add(lbl)
	}

	t := 0
	step := func() {
		t++
		r.act(t)
	}
	singletonOf := func(members []int) (int, bool) {
		found, count := -1, 0
		for _, m := range members {
			if r.sending(m) {
				found = m
				count++
				if count > 1 {
					return -1, false
				}
			}
		}
		return found, count == 1
	}
	// deliverFixed feeds every frozen layer from its predecessor.
	deliverFixed := func() {
		prev := []int{0}
		for _, layer := range cons.Layers {
			if w, ok := singletonOf(prev); ok {
				for _, v := range layer {
					if !r.sending(v) {
						r.deliver(v, t, w)
					}
				}
			}
			prev = layer
		}
	}

	// pendingInformer carries the standing singleton that ended the
	// previous game: it is the transmission that informs the next layer,
	// and it happened at the current step t.
	pendingInformer := -1
	prevLayer := []int{0}

	for i := 1; i <= d; i++ {
		remaining := d - i + 1
		// Reserve one label for every later layer: a cascade-forced
		// crossing can freeze the whole candidate set into this layer, and
		// the reserved labels guarantee the remaining layers stay
		// non-empty.
		reserve := remaining - 1
		avail := pool.Len() - reserve
		if avail < 1 {
			return nil, fmt.Errorf("lowerbound: pool exhausted at layer %d", i)
		}
		target := pool.Len() / remaining
		if target < 1 {
			target = 1
		}
		if target > avail {
			target = avail
		}

		informer := pendingInformer
		if informer == -1 {
			// Bootstrap (layer 1): wait for the source's first
			// transmission.
			waited := 0
			for {
				step()
				waited++
				if waited > maxWait {
					return nil, fmt.Errorf("lowerbound: %w (layer %d, %d steps, protocol %s)",
						ErrStalled, i, maxWait, p.Name())
				}
				deliverFixed()
				if w, ok := singletonOf(prevLayer); ok {
					informer = w
					break
				}
			}
		}
		cons.CrossAt = append(cons.CrossAt, t)

		// Inform all candidates with the standing singleton's payload (the
		// reserved highest labels sit out of this game).
		candidates := pool.Elements()
		candidates = candidates[:len(candidates)-reserve]
		for _, c := range candidates {
			r.start(c)
			r.deliver(c, t, informer)
			cons.InformedAt[c] = t
		}

		game := newLayerGame(candidates, target)
		pendingInformer = -1
		for {
			step()
			if t > maxWait*(i+1) {
				return nil, fmt.Errorf("lowerbound: %w (game %d, protocol %s)", ErrStalled, i, p.Name())
			}
			deliverFixed()
			// Live candidates hear the previous layer's singletons.
			if w, ok := singletonOf(prevLayer); ok {
				game.live.ForEach(func(c int) bool {
					if !r.sending(c) {
						r.deliver(c, t, w)
					}
					return true
				})
			}
			inf, crossed, removed := game.observe(r.sending)
			if removed > 0 {
				cons.Removed += removed
			}
			if crossed {
				pendingInformer = inf
				break
			}
		}

		// Freeze layer i; pruned candidates return to the pool with reset
		// histories.
		layer := game.frozen()
		for _, v := range layer {
			pool.Remove(v)
		}
		for _, c := range candidates {
			if !game.live.Contains(c) {
				r.drop(c)
				delete(cons.InformedAt, c)
			}
		}
		for _, u := range prevLayer {
			for _, v := range layer {
				edges.MustAddEdge(u, v)
			}
		}
		cons.Layers = append(cons.Layers, layer)
		prevLayer = layer
	}
	// The final pending singleton is the step at which a (D+1)-th layer
	// would be informed; record it as the total delay.
	cons.CrossAt = append(cons.CrossAt, t)

	// Any leftover labels join the last layer; they have no out-edges, so
	// the simulated histories of everyone else are unaffected.
	if leftovers := pool.Elements(); len(leftovers) > 0 {
		prev := []int{0}
		if len(cons.Layers) >= 2 {
			prev = cons.Layers[len(cons.Layers)-2]
		}
		last := cons.Layers[len(cons.Layers)-1]
		for _, v := range leftovers {
			for _, u := range prev {
				edges.MustAddEdge(u, v)
			}
			last = append(last, v)
			pool.Remove(v)
		}
		sort.Ints(last)
		cons.Layers[len(cons.Layers)-1] = last
	}
	g, err := edges.Build()
	if err != nil {
		return nil, err
	}
	cons.G = g
	return cons, g.Validate()
}

// VerifyDirectedRealRun replays the protocol on the constructed directed
// network and checks the construction's informed-times against reality
// (this construction's analogue of the executable Lemma 9).
func VerifyDirectedRealRun(p radio.DeterministicProtocol, c *DirectedConstruction, maxSteps int) (*radio.Result, error) {
	res, err := radio.Run(c.G, p, radio.Config{N: c.G.N(), R: c.G.N() - 1}, radio.Options{MaxSteps: maxSteps})
	if err != nil {
		return res, fmt.Errorf("lowerbound: directed real run: %w", err)
	}
	for v, got := range res.InformedAt {
		if want, ok := c.InformedAt[v]; ok && got != want {
			return res, fmt.Errorf("lowerbound: directed equivalence violated: node %d informed at %d, construction says %d",
				v, got, want)
		}
	}
	return res, nil
}
