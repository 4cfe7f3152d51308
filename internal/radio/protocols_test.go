package radio_test

// Benchmarks that drive the engine with the real deterministic programs of
// internal/det, which imports radio; they live in the external test package
// for that reason.

import (
	"testing"

	"adhocradio/internal/det"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

// BenchmarkSimulatorSelectAndSend is the deterministic token walk the wake
// hints serve: Select-and-Send on RandomTree(1024) through a reused Runner,
// run to completion. Only the token holder and the responders its Echo
// commands schedule are on air in a step.
func BenchmarkSimulatorSelectAndSend(b *testing.B) {
	g := graph.RandomTree(1024, rng.New(1))
	var r radio.Runner
	var res radio.Result
	b.ReportAllocs()
	totalSteps := 0
	for i := 0; i < b.N; i++ {
		if err := r.RunInto(&res, g, det.SelectAndSend{}, radio.Config{}, radio.Options{}); err != nil {
			b.Fatal(err)
		}
		totalSteps += res.StepsSimulated
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalSteps), "ns/step")
}
