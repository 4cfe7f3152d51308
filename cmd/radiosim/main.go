// Command radiosim runs a single broadcast simulation and reports what
// happened, optionally tracing every step.
//
// Usage:
//
//	radiosim -topo layered -n 1024 -d 64 -proto kp -seed 7 -v
//
// Topologies (adhocradio.TopologyKinds): clique, complete (complete
// layered), cycle, disk, gnp, grid, hypercube (dimension -d), layered
// (random layered), path, regular (random -d-regular), star, starchain,
// tree.
// Protocols: kp (optimal randomized), kp-paper (kp with the paper's
// constants), bgi (Decay), rr (round-robin), ss (Select-and-Send), cl
// (Complete-Layered), inter (rr+ss interleaved).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"adhocradio"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radiosim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topo     = flag.String("topo", "layered", "topology: "+strings.Join(adhocradio.TopologyKinds(), "|"))
		n        = flag.Int("n", 256, "number of nodes")
		d        = flag.Int("d", 16, "radius (layered/complete/starchain), degree (regular) or dimension (hypercube)")
		p        = flag.Float64("p", 0.3, "edge density (layered/gnp)")
		proto    = flag.String("proto", "kp", "protocol: kp|kp-paper|bgi|rr|ss|cl|inter")
		seed     = flag.Uint64("seed", 1, "random seed (topology and protocol)")
		maxStep  = flag.Int("maxsteps", 0, "step budget (0 = default)")
		verbose  = flag.Bool("v", false, "trace every step with transmissions")
		timeline = flag.Bool("timeline", false, "print the informed-fraction timeline and per-layer delays")
		energy   = flag.Bool("energy", false, "print per-node energy (transmission) statistics")
		heatmap  = flag.Bool("heatmap", false, "print the layer/time heatmap")
	)
	flag.Parse()

	g, err := buildTopology(*topo, *n, *d, *p, *seed)
	if err != nil {
		return err
	}
	protocol, err := pickProtocol(*proto)
	if err != nil {
		return err
	}

	fmt.Printf("network:  %s\n", g.Stats())
	fmt.Printf("protocol: %s\n", protocol.Name())

	opt := adhocradio.Options{MaxSteps: *maxStep}
	collector := adhocradio.NewCollector()
	hook := collector.Hook()
	opt.Trace = func(step int, tx []int, rx []adhocradio.Message) {
		hook(step, tx, rx)
		if *verbose && len(tx) > 0 {
			fmt.Printf("step %5d: tx=%v rx=%d\n", step, tx, len(rx))
		}
	}
	res, err := adhocradio.Broadcast(g, protocol, adhocradio.Config{Seed: *seed}, opt)
	if errors.Is(err, adhocradio.ErrBudgetExhausted) {
		// The partial result is still meaningful: report how far the
		// broadcast got before failing the run.
		informed := 0
		for _, at := range res.InformedAt {
			if at >= 0 {
				informed++
			}
		}
		fmt.Printf("step budget exhausted: %d/%d nodes informed after %d steps (raise -maxsteps)\n",
			informed, g.N(), res.StepsSimulated)
		return err
	}
	if err != nil {
		return err
	}
	fmt.Printf("broadcast time:  %d steps\n", res.BroadcastTime)
	fmt.Printf("transmissions:   %d\n", res.Transmissions)
	fmt.Printf("receptions:      %d\n", res.Receptions)
	fmt.Printf("collisions:      %d\n", res.Collisions)
	if r, err := g.Radius(); err == nil && r > 0 {
		fmt.Printf("steps per layer: %.1f\n", float64(res.BroadcastTime)/float64(r))
	}
	if *timeline {
		progress, err := adhocradio.AnalyzeProgress(g, res)
		if err != nil {
			return err
		}
		fmt.Println(progress.Timeline(60))
		if layer, delay := progress.SlowestLayer(); layer >= 0 {
			fmt.Printf("slowest layer:   %d (%d steps to cross)\n", layer, delay)
		}
	}
	if *energy {
		e := collector.Energy()
		fmt.Printf("energy: %d transmissions over %d active nodes (mean %.1f, max %d at node %d)\n",
			e.Total, e.Nodes, e.Mean, e.Max, e.MaxNode)
		fmt.Printf("fairness (Jain): %.3f\n", collector.JainFairness())
		fmt.Printf("top transmitters: %v\n", collector.TopTransmitters(5))
	}
	if *heatmap {
		progress, err := adhocradio.AnalyzeProgress(g, res)
		if err != nil {
			return err
		}
		layers, err := g.Layers()
		if err != nil {
			return err
		}
		fmt.Print(adhocradio.LayerHeatmap(progress, layers, res.InformedAt, 60))
	}
	return nil
}

// buildTopology maps the flags onto a TopologySpec — the same canonical
// description radiosd caches compiled graphs by, so the CLI and the daemon
// build byte-identical networks for the same parameters.
func buildTopology(topo string, n, d int, p float64, seed uint64) (*adhocradio.Graph, error) {
	spec := adhocradio.TopologySpec{Kind: topo, N: n, D: d, P: p, Seed: seed}
	if topo == "grid" {
		side := int(math.Sqrt(float64(n)))
		spec = adhocradio.TopologySpec{Kind: "grid", Rows: side, Cols: side}
	}
	g, err := spec.Build()
	if errors.Is(err, adhocradio.ErrInvalidTopologySpec) {
		return nil, fmt.Errorf("bad -topo/-n/-d/-p combination (kinds: %s): %w",
			strings.Join(adhocradio.TopologyKinds(), "|"), err)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

func pickProtocol(name string) (adhocradio.Protocol, error) {
	switch name {
	case "kp":
		return adhocradio.NewOptimalRandomized(), nil
	case "kp-paper":
		return adhocradio.NewOptimalRandomizedWithParams(adhocradio.RandomizedParams{
			StageFactor: 4660, FallbackFactor: 32}), nil
	case "bgi":
		return adhocradio.NewDecay(), nil
	case "rr":
		return adhocradio.NewRoundRobin(), nil
	case "ss":
		return adhocradio.NewSelectAndSend(), nil
	case "cl":
		return adhocradio.NewCompleteLayered(), nil
	case "inter":
		return adhocradio.NewInterleaved(adhocradio.NewRoundRobin(), adhocradio.NewSelectAndSend()), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}
