package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adhocradio/internal/core"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
)

// newTestService builds, starts, and auto-drains a service for one test.
func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Drain()
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var testSimReq = SimulateRequest{
	Topology: graph.Spec{Kind: "gnp", N: 96, P: 0.08, Seed: 11},
	Protocol: "kp",
	Seed:     5,
}

// TestSimulateCacheByteIdentity is the core determinism gate: the same
// request served from a cold cache (miss) and a warm cache (hit) must
// produce byte-identical bodies, with cache status only in the header.
func TestSimulateCacheByteIdentity(t *testing.T) {
	s, srv := newTestService(t, Config{Workers: 2})

	r1 := postJSON(t, srv.URL+"/v1/simulate", testSimReq)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", r1.StatusCode, readAll(t, r1))
	}
	if got := r1.Header.Get("X-Radiosd-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	b1 := readAll(t, r1)

	r2 := postJSON(t, srv.URL+"/v1/simulate", testSimReq)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", r2.StatusCode)
	}
	if got := r2.Header.Get("X-Radiosd-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	b2 := readAll(t, r2)

	if !bytes.Equal(b1, b2) {
		t.Fatalf("hit and miss bodies differ:\nmiss: %s\nhit:  %s", b1, b2)
	}
	if s.cache.hits.Load() != 1 || s.cache.misses.Load() != 1 {
		t.Fatalf("cache counters = %d hits / %d misses, want 1/1",
			s.cache.hits.Load(), s.cache.misses.Load())
	}
}

// TestSimulateMatchesDirectRun gates the service against the library: the
// HTTP body must be byte-identical to marshalling the result of a direct
// engine run with the same spec, protocol, and seed.
func TestSimulateMatchesDirectRun(t *testing.T) {
	_, srv := newTestService(t, Config{})

	resp := postJSON(t, srv.URL+"/v1/simulate", testSimReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	got := readAll(t, resp)

	// The direct path: same spec → same graph, same protocol factory, same
	// seed, fresh engine.
	spec, err := testSimReq.Topology.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	runner := radio.NewRunner()
	var res radio.Result
	before := runner.Counters()
	if err := runner.RunIntoContext(context.Background(), &res, g, core.New(),
		radio.Config{Seed: testSimReq.Seed}, radio.Options{}); err != nil {
		t.Fatal(err)
	}
	want := SimulateResponse{
		Topology: key,
		Protocol: testSimReq.Protocol,
		Seed:     testSimReq.Seed,
		Result: SimulateResult{
			Completed:      res.Completed,
			BroadcastTime:  res.BroadcastTime,
			StepsSimulated: res.StepsSimulated,
			Transmissions:  res.Transmissions,
			Receptions:     res.Receptions,
			Collisions:     res.Collisions,
		},
		Counters: runner.Counters().Diff(before),
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("service body differs from direct run:\nservice: %s\ndirect:  %s", got, buf.Bytes())
	}
}

// TestSimulateStepLimitPartial: exhausting MaxSteps is a 200 with
// completed=false, not a failure.
func TestSimulateStepLimitPartial(t *testing.T) {
	_, srv := newTestService(t, Config{})
	req := testSimReq
	req.MaxSteps = 2
	req.IncludeInformedAt = true
	resp := postJSON(t, srv.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var body SimulateResponse
	if err := json.Unmarshal(readAll(t, resp), &body); err != nil {
		t.Fatal(err)
	}
	if body.Result.Completed {
		t.Fatal("2-step run on a 96-node graph reported completed")
	}
	if body.Result.StepsSimulated != 2 {
		t.Fatalf("StepsSimulated = %d, want 2", body.Result.StepsSimulated)
	}
	if len(body.Result.InformedAt) != 96 {
		t.Fatalf("len(InformedAt) = %d, want 96", len(body.Result.InformedAt))
	}
}

func TestSimulateBadRequests(t *testing.T) {
	_, srv := newTestService(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"bad spec", SimulateRequest{Topology: graph.Spec{Kind: "warp", N: 4}, Protocol: "kp"}},
		{"bad protocol", SimulateRequest{Topology: graph.Spec{Kind: "path", N: 8}, Protocol: "zigzag"}},
		{"bad json", "not an object"},
	}
	for _, c := range cases {
		resp := postJSON(t, srv.URL+"/v1/simulate", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		readAll(t, resp)
	}
}

// TestSimulateNegativeMaxSteps: a negative step budget is the client's
// error, answered 400 before the job is admitted, so it takes no queue
// slot, builds no graph and counts as no failed job.
func TestSimulateNegativeMaxSteps(t *testing.T) {
	s, srv := newTestService(t, Config{})
	req := testSimReq
	req.MaxSteps = -1
	resp := postJSON(t, srv.URL+"/v1/simulate", req)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, b)
	}
	var e errorResponse
	if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, "max_steps") {
		t.Fatalf("400 body %s does not name max_steps (%v)", b, err)
	}
	if n := s.accepted.Load() + s.rejected.Load(); n != 0 {
		t.Fatalf("negative max_steps reached admission (%d)", n)
	}
	if n := s.cache.misses.Load(); n != 0 {
		t.Fatalf("negative max_steps looked up the graph cache (%d misses)", n)
	}
}

// TestSimulateKPOnOneNode: KP's schedule needs a label bound of at least
// 1, so a one-node topology is the client's error. It is answered 400, and
// the worker survives to serve the next request.
func TestSimulateKPOnOneNode(t *testing.T) {
	_, srv := newTestService(t, Config{Workers: 1})
	for _, proto := range []string{"kp", "kp-paper"} {
		resp := postJSON(t, srv.URL+"/v1/simulate",
			SimulateRequest{Topology: graph.Spec{Kind: "path", N: 1}, Protocol: proto})
		if b := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400; body %s", proto, resp.StatusCode, b)
		}
	}
	resp := postJSON(t, srv.URL+"/v1/simulate", testSimReq)
	if b := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status %d; body %s", resp.StatusCode, b)
	}
}

// TestBackpressureQueueFull fills the single queue slot while the only
// worker is parked, then asserts the next request sheds with 503 +
// Retry-After instead of queueing unboundedly.
func TestBackpressureQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testHookJobStart = func(*job) {
		started <- struct{}{}
		<-release
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Drain()
	})

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func() {
		resp := postJSON(t, srv.URL+"/v1/simulate", testSimReq)
		results <- result{resp.StatusCode, readAll(t, resp)}
	}
	go post()
	<-started // worker parked holding job 1
	go post()
	for len(s.queue) == 0 { // job 2 occupies the single queue slot
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, srv.URL+"/v1/simulate", testSimReq)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if !strings.Contains(string(body), ErrQueueFull.Error()) {
		t.Fatalf("503 body %s does not mention the queue", body)
	}

	close(release) // let the parked worker finish both accepted jobs
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("accepted job answered %d: %s", r.status, r.body)
		}
	}
}

// TestDeadlineExpiry parks the worker until the job's own deadline passes;
// the handler must answer 504 and the worker must abandon the run.
func TestDeadlineExpiry(t *testing.T) {
	s := New(Config{Workers: 1})
	s.testHookJobStart = func(j *job) { <-j.ctx.Done() }
	s.Start()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Drain()
	})

	req := testSimReq
	req.TimeoutMS = 20
	resp := postJSON(t, srv.URL+"/v1/simulate", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
}

// TestFinishedJobLeavesContextUncancelled pins the lost-response fix: the
// worker only closes done, so a handler that sees its job finish never also
// sees the request context cancelled, and cannot answer 504 for a result
// that exists.
func TestFinishedJobLeavesContextUncancelled(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	t.Cleanup(func() { s.Drain() })
	spec, err := testSimReq.Topology.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &job{ctx: ctx, spec: spec, specKey: key, protocol: testSimReq.Protocol,
		seed: testSimReq.Seed, done: make(chan struct{})}
	if err := s.enqueue(j); err != nil {
		t.Fatal(err)
	}
	<-j.done
	if j.err != nil || j.resp == nil {
		t.Fatalf("job finished with err %v, resp %v", j.err, j.resp)
	}
	if err := ctx.Err(); err != nil {
		t.Fatalf("finished job's request context is %v, want uncancelled", err)
	}
}

// TestSimulateBodyTooLarge: a body over maxBodyBytes is answered 413 with
// the usual JSON error body, before anything is admitted.
func TestSimulateBodyTooLarge(t *testing.T) {
	s, srv := newTestService(t, Config{})
	body := `{"protocol":"` + strings.Repeat("k", maxBodyBytes) + `"}`
	resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", resp.StatusCode, b)
	}
	var e errorResponse
	if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
		t.Fatalf("413 body %s is not a JSON error (%v)", b, err)
	}
	if n := s.accepted.Load() + s.rejected.Load(); n != 0 {
		t.Fatalf("oversized request reached admission (%d)", n)
	}
}

// TestGracefulDrain initiates shutdown while a job is in flight and others
// are queued: everything accepted completes, new work is shed with 503, and
// the report shows zero active jobs.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testHookJobStart = func(*job) {
		started <- struct{}{}
		<-release
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	results := make(chan int, 2)
	post := func() {
		resp := postJSON(t, srv.URL+"/v1/simulate", testSimReq)
		readAll(t, resp)
		results <- resp.StatusCode
	}
	go post()
	<-started // worker parked mid-job
	go post()
	for len(s.queue) == 0 {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan DrainReport, 1)
	go func() { drained <- s.Drain() }()
	for !s.draining() {
		time.Sleep(time.Millisecond)
	}

	// Draining: admission is closed...
	resp := postJSON(t, srv.URL+"/v1/simulate", testSimReq)
	if body := readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503; body %s", resp.StatusCode, body)
	}
	var hb struct {
		Status string `json:"status"`
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readAll(t, hresp), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", hb.Status)
	}

	// ...but accepted work still runs to completion.
	close(release)
	rep := <-drained
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("accepted job answered %d during drain", code)
		}
	}
	if rep.Active != 0 {
		t.Fatalf("drain report active = %d, want 0 (no dropped jobs)", rep.Active)
	}
	if rep.Completed != 2 {
		t.Fatalf("drain report completed = %d, want 2", rep.Completed)
	}
	if rep.Rejected == 0 {
		t.Fatal("drain report rejected = 0, want >= 1 (the shed request)")
	}
	if rep.Failed != 0 {
		t.Fatalf("drain report failed = %d, want 0 (a shed request is rejected, not failed)", rep.Failed)
	}
	// Drain is idempotent: a second call re-reports without hanging.
	if rep2 := s.Drain(); rep2.Completed != rep.Completed {
		t.Fatalf("second drain report differs: %+v vs %+v", rep2, rep)
	}
}

// TestMetrics exercises /metrics after one simulation: service gauges and
// the obs projection must both be present.
func TestMetrics(t *testing.T) {
	_, srv := newTestService(t, Config{})
	readAll(t, postJSON(t, srv.URL+"/v1/simulate", testSimReq))
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	for _, want := range []string{
		"radiosd_queue_depth 0",
		"radiosd_queue_capacity 16",
		"radiosd_workers 2",
		"radiosd_draining 0",
		"radiosd_jobs_completed_total 1",
		"radiosd_cache_misses_total 1",
		"obs_steps_total",
		"obs_transmissions_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestGraphCacheEviction pins LRU behaviour at capacity 1: the second key
// evicts the first, and re-requesting the first is a fresh miss.
func TestGraphCacheEviction(t *testing.T) {
	c := newGraphCache(1)
	a := graph.Spec{Kind: "path", N: 8}
	b := graph.Spec{Kind: "star", N: 8}
	for _, s := range []graph.Spec{a, b, a} {
		ns, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		key, err := ns.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.get(key, ns); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.misses.Load(); got != 3 {
		t.Fatalf("misses = %d, want 3 (capacity-1 cache must evict)", got)
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.len())
	}
}

// TestGraphCacheErrorNotCached: a failed build must not poison the key.
func TestGraphCacheErrorNotCached(t *testing.T) {
	c := newGraphCache(4)
	bad := graph.Spec{Kind: "warp", N: 4}
	if _, _, err := c.get("warp,n=4", bad); err == nil {
		t.Fatal("building an invalid spec succeeded")
	}
	if c.len() != 0 {
		t.Fatalf("failed build left %d entries resident", c.len())
	}
	good := graph.Spec{Kind: "path", N: 4}
	if _, _, err := c.get("warp,n=4", good); err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
}

func TestProtocolFor(t *testing.T) {
	for _, name := range []string{"kp", "kp-paper", "bgi", "rr", "ss", "cl", "inter"} {
		p, err := protocolFor(name)
		if err != nil {
			t.Fatalf("protocolFor(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("protocolFor(%q) returned unnamed protocol", name)
		}
	}
	if _, err := protocolFor("zigzag"); !errors.Is(err, ErrUnknownProtocol) {
		t.Fatalf("unknown protocol error = %v, want ErrUnknownProtocol", err)
	}
}
