package radiotest

import (
	"testing"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/radio"
)

// Every fault model must be mirrored in the reference simulator before it
// ships (CONTRIBUTING.md); these runs are the gate. The protocol list spans
// the delivery-path variants: randomized broadcast (core, decay),
// deterministic schedule- and command-driven protocols (Round-Robin,
// Select-and-Send), and the neighbor-aware DFS token with its label-only
// SourceCarrier echoes.

func TestFaultDifferentialKPOptimal(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return core.New() }, Options{})
}

func TestFaultDifferentialDecay(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return decay.New() }, Options{})
}

func TestFaultDifferentialSelectAndSend(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return det.SelectAndSend{} }, Options{})
}

func TestFaultDifferentialRoundRobin(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return det.RoundRobin{} }, Options{})
}

func TestFaultDifferentialDFSNeighborhood(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return det.DFSNeighborhood{} }, Options{})
}
