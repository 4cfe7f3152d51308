package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adhocradio/internal/service"
)

// TestMain lets the test binary serve as a workload child, so the parent's
// spawn path runs under test too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		if err := runChild(os.Stdin, os.Stdout); err != nil {
			os.Stderr.WriteString("radioperf child: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// checkReport fails the test on any failed check and on any metric name
// the tables do not declare.
func checkReport(t *testing.T, name string, rep report) {
	t.Helper()
	if len(rep.Checks) > 0 || rep.Failed > 0 {
		t.Errorf("%s: %d of %d operations failed; checks: %v", name, rep.Failed, rep.Attempted, rep.Checks)
	}
	if rep.Attempted == 0 {
		t.Errorf("%s: attempted nothing", name)
	}
	for metric, v := range rep.Metrics {
		if v.Unit == "?" {
			t.Errorf("%s: metric %s is not declared in metrics.go", name, metric)
		}
	}
}

// TestSmokeAllWorkloads runs the four workloads at smoke scale, in
// process except for the radiosd daemon, with tracing on so every layer
// metric path runs.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts radiosd")
	}
	start := time.Now()
	ctx := context.Background()
	nproc := runtime.NumCPU()

	rep, err := runSuite(ctx, suiteInput{Seed: 1, Parallel: nproc, Quick: true}, newTracer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "suite", rep)
	if rep.Attempted != int64(len(experimentIDs)) {
		t.Errorf("suite ran %d experiments, want %d", rep.Attempted, len(experimentIDs))
	}

	dense := denseTrials(1, 1)
	for i := range dense {
		dense[i].N = 96 // the shapes' real sizes take seconds to build
	}
	rep, err = runTrialsWorkload(ctx, trialsInput{Trials: dense, Workers: nproc}, newTracer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "dense-trials", rep)
	if rep.Metrics["graph.build_s.dense"].Value <= 0 || rep.Metrics["graph.arcs"].Value <= 0 {
		t.Errorf("dense-trials: no dense build recorded: %v", rep.Metrics)
	}

	sparse := sparseTrials(1, 2*len(sparseCombos))
	for i := range sparse {
		sparse[i].N = 64 + i
		sparse[i].D = min(sparse[i].D, 4)
		sparse[i].Fault = nil
		sparse[i].MaxSteps = 0
	}
	rep, err = runTrialsWorkload(ctx, trialsInput{Trials: sparse, Workers: nproc}, newTracer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "sparse-trials", rep)

	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildRadiosd(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	in := radiosdPlan(1, 20, 40, 40)
	in.Binary, in.Clients = bin, nproc
	su := &setups{n: 2}
	rep, err = runRadiosd(ctx, in, newTracer(), su)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "radiosd", rep)
	if len(su.times) != 3 {
		t.Errorf("radiosd: %d set-up samples, want 3", len(su.times))
	}
	if r := rep.Metrics["service.cache_hit_ratio"].Value; r <= 0 || r >= 1 {
		t.Errorf("radiosd: cache hit ratio %v, want hits and misses", r)
	}
	t.Logf("smoke run of all four workloads took %v", time.Since(start))
}

// TestChildJob drives a tiny trials job through a real child process: the
// set-up children, the working child, and its report.
func TestChildJob(t *testing.T) {
	trials := sparseTrials(3, 4)
	for i := range trials {
		trials[i].N = 40
		trials[i].D = min(trials[i].D, 4)
	}
	j := job{Workload: "sparse-trials", SetupRuns: 4, Trials: &trialsInput{Trials: trials, Workers: 1, Rounds: 2},
		TracePath: filepath.Join(t.TempDir(), "trace.jsonl")}
	ready, rep, err := runChildJob(context.Background(), j, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if ready <= 0 || len(rep.Setup) != 3 {
		t.Errorf("ready after %v s, %d set-up samples from the child; want > 0 and 3", ready, len(rep.Setup))
	}
	checkReport(t, "child", rep)
	if _, err := os.Stat(j.TracePath); err != nil {
		t.Errorf("child wrote no trace: %v", err)
	}
}

// Set-up runs are spread evenly over a workload's units, and all of them
// run.
func TestSetupsSpread(t *testing.T) {
	var at []int
	unit := 0
	su := &setups{n: 7, run: func() (time.Duration, error) {
		at = append(at, unit)
		return time.Millisecond, nil
	}}
	for unit = 0; unit < 3; unit++ {
		if err := su.before(unit, 3); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{0, 0, 0, 1, 1, 2, 2}; !reflect.DeepEqual(at, want) || len(su.times) != len(want) {
		t.Errorf("set-ups ran before units %v with %d times, want %v", at, len(su.times), want)
	}
}

// Every workload seed picks one of the suite's vetted experiment seeds,
// and every one of those has a committed digest.
func TestSuiteSeed(t *testing.T) {
	for seed, want := range map[uint64]uint64{
		0: suiteSeeds, 1: 1, 2: 2, suiteSeeds: suiteSeeds, suiteSeeds + 1: 1,
		math.MaxUint64: math.MaxUint64 % suiteSeeds, // 15, which maps to itself
	} {
		if got := suiteSeed(seed); got != want {
			t.Errorf("suiteSeed(%d) = %d, want %d", seed, got, want)
		}
	}
	for s := uint64(1); s <= suiteSeeds; s++ {
		if len(committedDigest("suite", s, 1)) != 64 {
			t.Errorf("no committed suite digest for seed %d", s)
		}
	}
}

// A digest that does not match the committed one fails the run's checks.
func TestDigestMismatchFails(t *testing.T) {
	trials := sparseTrials(1, 3)
	for i := range trials {
		trials[i].N = 32
		trials[i].D = min(trials[i].D, 4)
	}
	rep, err := runTrialsWorkload(context.Background(), trialsInput{Trials: trials, Workers: 1, Digest: "0"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != 1 || rep.Failed != 0 {
		t.Fatalf("checks %v, failed %d; want exactly the digest mismatch", rep.Checks, rep.Failed)
	}
}

// The same seed gives the same inputs; another seed gives other ones.
func TestInputsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(sparseTrials(5, 50), sparseTrials(5, 50)) ||
		!reflect.DeepEqual(denseTrials(5, 2), denseTrials(5, 2)) ||
		!reflect.DeepEqual(radiosdPlan(5, 20, 40, 30), radiosdPlan(5, 20, 40, 30)) {
		t.Fatal("inputs differ for one seed")
	}
	if reflect.DeepEqual(sparseTrials(5, 50), sparseTrials(6, 50)) ||
		reflect.DeepEqual(radiosdPlan(5, 20, 40, 30), radiosdPlan(6, 20, 40, 30)) {
		t.Fatal("inputs do not depend on the seed")
	}
}

// Every dense-trials round runs every generator on every shape once, so
// the rounds are alike and their median covers every generator.
func TestDenseRoundsAlike(t *testing.T) {
	trials := denseTrials(3, 4)
	for r := 0; r < 4; r++ {
		seen := map[string]int{}
		for _, tr := range trials[r*denseRound : (r+1)*denseRound] {
			seen[fmt.Sprintf("%s %d %d", tr.Gen, tr.N, tr.D)]++
		}
		if len(seen) != denseRound {
			t.Fatalf("round %d holds %d distinct (generator, n, d), want %d: %v", r, len(seen), denseRound, seen)
		}
	}
}

// Exactly one request in every block of five is cold, so the hit ratio
// is 0.8 once the hot specs are cached.
func TestRequestMix(t *testing.T) {
	hot := map[string]bool{}
	for _, sp := range hotSpecs(9) {
		key, err := sp.spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		hot[key] = true
	}
	reqs := newRequestMix(9).take(50 * mixBlock)
	for b := 0; b < len(reqs); b += mixBlock {
		cold := 0
		for _, r := range reqs[b : b+mixBlock] {
			key, err := r.Topology.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if !hot[key] {
				cold++
			}
		}
		if cold != 1 {
			t.Fatalf("block %d has %d cold requests, want 1", b/mixBlock, cold)
		}
	}
}

// The radiosd plan sends its requests in the order the mix drew them, so
// the cold specs reach the daemon in turn; its closed-loop segments come
// first, last and between the open-loop chunks, and every phase gets all
// its requests.
func TestRadiosdPlan(t *testing.T) {
	in := radiosdPlan(4, 10, 100, 90)
	sent := append([]service.SimulateRequest(nil), in.Warmup...)
	requests, steps := map[string]int{}, map[string]int{}
	for i, st := range in.Steps {
		sent = append(sent, st.Requests...)
		requests[st.Phase] += len(st.Requests)
		steps[st.Phase]++
		wantDue := len(st.Requests) // one send time per open-loop request
		if st.Rate == 0 {
			wantDue = 0
		}
		if (st.Rate == 0) != (st.Phase == "closed") || len(st.DueNS) != wantDue {
			t.Fatalf("step %d: phase %q, rate %v, %d requests, %d send times", i, st.Phase, st.Rate, len(st.Requests), len(st.DueNS))
		}
		if st.Rate != 0 && (i == 0 || in.Steps[i-1].Rate != 0) {
			t.Fatalf("step %d: open-loop chunk not preceded by a closed-loop segment", i)
		}
	}
	if !reflect.DeepEqual(sent, newRequestMix(4).take(10+2*100+90)) {
		t.Error("requests are not sent in the order the mix drew them")
	}
	wantReqs := map[string]int{"closed": 90, "r70": 100, "r140": 100}
	wantSteps := map[string]int{"closed": closedSegments, "r70": openChunks, "r140": openChunks}
	if !reflect.DeepEqual(requests, wantReqs) || !reflect.DeepEqual(steps, wantSteps) {
		t.Errorf("requests per phase %v, want %v; steps %v, want %v", requests, wantReqs, steps, wantSteps)
	}
	if last := in.Steps[len(in.Steps)-1]; last.Rate != 0 {
		t.Error("the plan does not end with a closed-loop segment")
	}
}

// Only radiosd's 504 for a completed job is a lost response.
func TestLostResponse(t *testing.T) {
	if !lostResponse(http.StatusGatewayTimeout, []byte(`{"error":"context canceled"}`+"\n")) {
		t.Error("504 context canceled is not a lost response")
	}
	for _, c := range []struct {
		status int
		body   string
	}{
		{http.StatusGatewayTimeout, `{"error":"context deadline exceeded"}`},
		{http.StatusServiceUnavailable, `{"error":"context canceled"}`},
		{http.StatusOK, `{"topology":"context canceled"}`},
		{0, ""},
	} {
		if lostResponse(c.status, []byte(c.body)) {
			t.Errorf("%d %s taken for a lost response", c.status, c.body)
		}
	}
}

// BENCHMARK.json lists exactly the metrics this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nprogram %v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram %v", bench.PerLayer, perLayer)
	}
}
