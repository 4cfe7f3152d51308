package adhocradio

import (
	"context"

	"adhocradio/internal/experiment"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
)

// Typed errors. Callers discriminate failure modes with errors.Is and
// errors.As instead of matching message text; CONTRIBUTING.md makes this a
// rule for new public entry points.

// ErrBudgetExhausted is reported (wrapped) by Broadcast/BroadcastContext
// when the step budget (Options.MaxSteps, or the DefaultMaxSteps fallback)
// runs out before every node is informed. The partial Result accompanying
// the error is still meaningful: InformedAt, the counters and
// StepsSimulated describe the truncated run.
var ErrBudgetExhausted = radio.ErrStepLimit

// ErrUnfitProtocol is reported (wrapped) by Broadcast/BroadcastContext, and
// by every Runner entry point, when the protocol's own parameter check
// rejects the run's configuration, such as the optimal randomized algorithm
// on a one-node network. No node program is built and no step runs.
var ErrUnfitProtocol = radio.ErrUnfitProtocol

// ErrUnknownExperiment is reported (wrapped) by RunExperiment and
// RunExperimentContext when the experiment ID is not registered.
var ErrUnknownExperiment = experiment.ErrUnknownExperiment

// ErrInvalidTopologySpec is reported (wrapped) by TopologySpec methods when
// a spec names an unknown kind or violates a generator's constraints.
var ErrInvalidTopologySpec = graph.ErrBadSpec

// ContractViolationError reports a breach of the simulator↔program calling
// contract observed by WithContractChecks; extract it with errors.As.
type ContractViolationError = radio.ContractViolationError

// TopologySpec is a canonical, serializable description of a generated
// topology: generator kind plus the parameters and seed that make
// construction deterministic. Build constructs the graph; Canonical returns
// the normalized cache key the radiosd compiled-graph cache is keyed by.
// Two specs with equal Canonical() keys build byte-identical graphs.
type TopologySpec = graph.Spec

// TopologyKinds lists every spec kind TopologySpec.Build understands.
func TopologyKinds() []string { return graph.Kinds() }

// BroadcastContext is Broadcast honoring ctx: cancellation is checked
// between simulation steps, so callers holding a request deadline (such as
// the radiosd service handlers) can abort an in-flight simulation. The
// returned error wraps ctx.Err(); a run that exhausts its step budget
// instead returns the partial Result alongside an error wrapping
// ErrBudgetExhausted.
func BroadcastContext(ctx context.Context, g *Graph, p Protocol, cfg Config, opt Options) (*Result, error) {
	return radio.RunContext(ctx, g, p, cfg, opt)
}
