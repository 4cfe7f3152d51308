package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
	"adhocradio/internal/service"
)

// Request mix of the radiosd workload. Four requests in five go to eight
// hot specs, which stay resident in the daemon's 32-entry graph cache; one
// in five goes to the next of 64 cold specs in turn, more than the cache
// holds, so every cold request misses and builds its graph.
const (
	coldSpecs  = 64
	mixBlock   = 5  // one cold request per block of this many
	checkEvery = 20 // every 20th 200-response is checked against the library
	// openChunks is how many chunks each open-loop phase is sent in.
	openChunks = 4
	// closedSegments splits the closed loop. The segments run between the
	// open-loop chunks (see radiosdPlan); wall_s and cpu_s are the segment
	// count times the median segment, so disturbed segments do not move
	// them.
	closedSegments = 18
	// maxResends bounds how often one request is sent again after a lost
	// response (see lostResponse).
	maxResends = 3
)

type specProto struct {
	spec  graph.Spec
	proto string
}

// hotSpecs are the cache-resident specs; their generator seeds come from
// the workload seed.
func hotSpecs(seed uint64) []specProto {
	s := func(k uint64) uint64 { return rng.NewStream(seed, 1<<41+k).Uint64() }
	return []specProto{
		{graph.Spec{Kind: "layered", N: 1024, D: 64, P: 0.3, Seed: s(0)}, "kp"},
		{graph.Spec{Kind: "layered", N: 512, D: 32, P: 0.3, Seed: s(1)}, "kp"},
		{graph.Spec{Kind: "gnp", N: 1024, P: 4.0 / 1024, Seed: s(2)}, "bgi"},
		{graph.Spec{Kind: "gnp", N: 2048, P: 4.0 / 2048, Seed: s(3)}, "bgi"},
		{graph.Spec{Kind: "tree", N: 256, Seed: s(4)}, "ss"},
		{graph.Spec{Kind: "tree", N: 512, Seed: s(5)}, "ss"},
		{graph.Spec{Kind: "complete", N: 1024, D: 8}, "kp"},
		{graph.Spec{Kind: "grid", Rows: 32, Cols: 32}, "bgi"},
	}
}

// coldSpec returns cold spec k: even k a random layered network with KP,
// odd k a complete layered network with BGI.
func coldSpec(seed uint64, k int) specProto {
	if k%2 == 0 {
		return specProto{graph.Spec{Kind: "layered", N: 1024, D: 64, P: 0.3,
			Seed: rng.NewStream(seed, 1<<42+uint64(k)).Uint64()}, "kp"}
	}
	return specProto{graph.Spec{Kind: "complete", N: 1024 + k/2, D: 4}, "bgi"}
}

// requestMix generates the workload's request sequence from the seed.
// Hot specs are drawn in seeded permutations, so every hot spec gets the
// same share of any stretch of requests.
type requestMix struct {
	seed  uint64
	src   *rng.Source
	hot   []specProto
	order []int // hot specs still to draw in the current permutation
	cold  int   // cold specs issued so far
	pos   int   // position within the current block
	slot  int   // the block's cold position
}

func newRequestMix(seed uint64) *requestMix {
	return &requestMix{seed: seed, src: rng.NewStream(seed, 1<<43), hot: hotSpecs(seed)}
}

func (m *requestMix) next() service.SimulateRequest {
	if m.pos == 0 {
		m.slot = m.src.Intn(mixBlock)
	}
	var sp specProto
	if m.pos == m.slot {
		sp = coldSpec(m.seed, m.cold%coldSpecs)
		m.cold++
	} else {
		if len(m.order) == 0 {
			m.order = m.src.Perm(len(m.hot))
		}
		sp = m.hot[m.order[0]]
		m.order = m.order[1:]
	}
	m.pos = (m.pos + 1) % mixBlock
	return service.SimulateRequest{Topology: sp.spec, Protocol: sp.proto, Seed: m.src.Uint64()}
}

func (m *requestMix) take(k int) []service.SimulateRequest {
	out := make([]service.SimulateRequest, k)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

// step is one stretch of the measured radiosd run: a closed-loop segment
// (Rate 0), or a chunk of an open-loop phase, whose requests are sent at
// seeded Poisson arrival times whatever the daemon's progress.
type step struct {
	Phase    string                    `json:"phase"` // "closed", or the open phase's name
	Rate     float64                   `json:"rate,omitempty"`
	Requests []service.SimulateRequest `json:"requests"`
	DueNS    []int64                   `json:"due_ns,omitempty"` // from the chunk's start
}

// radiosdInput is what the radiosd workload's child process receives.
type radiosdInput struct {
	Binary  string                    `json:"binary"`
	Clients int                       `json:"clients"`
	Warmup  []service.SimulateRequest `json:"warmup"`
	Steps   []step                    `json:"steps"`
}

// openRates are the open-loop phases' request rates, in req/s.
var openRates = []float64{70, 140}

// radiosdPlan generates the radiosd workload from the seed: warmup
// requests, then openCount requests at each of the openRates and
// closedCount for the closed loop. The measured part interleaves the
// closed loop with the open loops: each open phase is sent in openChunks
// chunks, and closedSegments segments of the closed loop are spread
// evenly before every chunk and after the last. Requests are drawn from
// the mix in the order they are sent, so the cold specs reach the daemon
// in turn and every cold request misses the cache.
func radiosdPlan(seed uint64, warmup, openCount, closedCount int) radiosdInput {
	mix := newRequestMix(seed)
	arrivals := rng.NewStream(seed, 1<<44)
	in := radiosdInput{Warmup: mix.take(warmup)}
	gaps := len(openRates)*openChunks + 1
	seg := 0
	closedUpTo := func(gap int) {
		for ; seg < closedSegments && seg*gaps/closedSegments <= gap; seg++ {
			lo, hi := seg*closedCount/closedSegments, (seg+1)*closedCount/closedSegments
			in.Steps = append(in.Steps, step{Phase: "closed", Requests: mix.take(hi - lo)})
		}
	}
	for r, rate := range openRates {
		for c := 0; c < openChunks; c++ {
			closedUpTo(r*openChunks + c)
			lo, hi := c*openCount/openChunks, (c+1)*openCount/openChunks
			st := step{Phase: "r" + strconv.Itoa(int(rate)), Rate: rate, Requests: mix.take(hi - lo)}
			var at float64
			for range st.Requests {
				// Exponential inter-arrival times; 1-U is in (0, 1].
				at += -math.Log(1-arrivals.Float64()) / rate
				st.DueNS = append(st.DueNS, int64(at*1e9))
			}
			in.Steps = append(in.Steps, st)
		}
	}
	closedUpTo(gaps - 1)
	return in
}

// daemon is a running radiosd child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	out  bytes.Buffer  // stdout after the listening line
	done chan struct{} // closed when stdout reaches EOF
}

// startDaemon starts radiosd with default flags on a free loopback port and
// returns once /healthz answers, with the time that took.
func startDaemon(ctx context.Context, bin string) (*daemon, time.Duration, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0")
	d.cmd.Stderr = os.Stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting radiosd: %w", err)
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("radiosd did not report its address: %w", err)
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		d.kill()
		return nil, 0, fmt.Errorf("radiosd: unexpected first line %q", line)
	}
	d.url, _, _ = strings.Cut(line[i+len(marker):], " ")
	go func() {
		defer close(d.done)
		_, _ = io.Copy(&d.out, br) // ends at EOF when the daemon exits
	}()
	probe := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("radiosd not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the graceful drain and returns the exit
// error and everything the daemon printed after its listening line.
func (d *daemon) stop() (string, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return "", fmt.Errorf("signalling radiosd: %w", err)
	}
	<-d.done
	err := d.cmd.Wait()
	return d.out.String(), err
}

// kill ends the daemon without a drain (error paths only).
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	if d.done != nil {
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
		}
	}
	_ = d.cmd.Wait()
}

// sample is one request as the load generator saw it; status, hit and
// body are those of its last answer.
type sample struct {
	due, sent, done time.Time
	status          int
	hit             bool
	body            []byte
	resent          int // times it was sent again after a lost response
}

// ok reports whether the request succeeded (any other status, or a
// transport error, is a failed operation).
func (s sample) ok() bool { return s.status == http.StatusOK }

// lostResponse reports whether an answer is radiosd's 504 for a job that
// in fact completed: job.finish cancels the job's context before it closes
// done, so handleSimulate can see the cancellation first (README.md, "Two
// radiosd behaviours"). The load generator never cancels a request, and a
// deadline that really expired reads "context deadline exceeded", so this
// answer means nothing else.
func lostResponse(status int, body []byte) bool {
	return status == http.StatusGatewayTimeout && bytes.Contains(body, []byte(context.Canceled.Error()))
}

// latency is the time from when the request was due to its response; a
// failed request counts as missing any latency limit.
func (s sample) latency() float64 {
	if !s.ok() {
		return math.Inf(1)
	}
	return s.done.Sub(s.due).Seconds()
}

// serviceTime is the time from sending the request to its response.
func (s sample) serviceTime() float64 { return s.done.Sub(s.sent).Seconds() }

// loadgen is the single load-generating client: at most clients
// connections, shared by the senders and the /metrics scraper.
type loadgen struct {
	url     string
	clients int
	http    *http.Client
	tr      *tracer
	traceID atomic.Uint64
}

func newLoadgen(url string, clients int, tr *tracer) *loadgen {
	return &loadgen{url: url, clients: clients, tr: tr, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
	}}}
}

// do sends one request and fills in s. A lost response is sent again, at
// most maxResends times, as a client of radiosd would: the simulation is a
// pure function of the request, so the answer to the resent request is the
// one the lost response should have carried, and its latency includes
// every attempt.
func (l *loadgen) do(ctx context.Context, body []byte, s *sample) {
	s.sent = time.Now()
	l.post(ctx, body, s)
	for lostResponse(s.status, s.body) && s.resent < maxResends {
		s.resent++
		l.post(ctx, body, s)
	}
	s.done = time.Now()
	id := l.traceID.Add(1)
	root := l.tr.record(id, 0, "loadgen", "request", s.due, s.done)
	l.tr.record(id, root, "service", "simulate", s.sent, s.done)
}

// post sends the request once and records its answer in s; a transport
// error is status 0.
func (l *loadgen) post(ctx context.Context, body []byte, s *sample) {
	s.status, s.hit, s.body = 0, false, nil
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return
	}
	resp, err := l.http.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return
	}
	s.status, s.hit, s.body = resp.StatusCode, resp.Header.Get("X-Radiosd-Cache") == "hit", b
}

// closedLoop sends every request with l.clients senders, each sending its
// next request as soon as the previous one answered.
func (l *loadgen) closedLoop(ctx context.Context, bodies [][]byte) []sample {
	out := make([]sample, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) || ctx.Err() != nil {
					return
				}
				out[i].due = time.Now()
				l.do(ctx, bodies[i], &out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends request i at start+due[i] whatever the daemon's progress:
// a scheduler hands each request to the l.clients senders when it is due,
// and its latency counts from then, so a stall charges every request it
// delays. lag is how late the scheduler itself ran.
func (l *loadgen) openLoop(ctx context.Context, bodies [][]byte, due []int64) (out []sample, lag []float64) {
	out = make([]sample, len(bodies))
	lag = make([]float64, len(bodies))
	// Sized to the phase so the scheduler never blocks on busy senders.
	ready := make(chan int, len(bodies))
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				l.do(ctx, bodies[i], &out[i])
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i := range bodies {
		at := start.Add(time.Duration(due[i]))
		if d := time.Until(at); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		lag[i] = time.Since(at).Seconds()
		out[i].due = at
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out, lag
}

// scrape fetches and parses /metrics.
func (l *loadgen) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return parseMetrics(string(b))
}

// parseMetrics parses the Prometheus text exposition format as radiosd
// writes it: one "name value" sample per line, with optional comment
// lines. Labels and timestamps are not used by radiosd and are rejected.
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || strings.ContainsAny(f[0], "{}") {
			return nil, fmt.Errorf("metrics line %d: want \"name value\", got %q", i+1, line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", i+1, err)
		}
		if _, dup := out[f[0]]; dup {
			return nil, fmt.Errorf("metrics line %d: duplicate sample %s", i+1, f[0])
		}
		out[f[0]] = v
	}
	return out, nil
}

// scraper polls /metrics every 100 ms until stopped and keeps the largest
// queue depth seen.
type scraper struct {
	stop     chan struct{}
	done     chan struct{}
	maxDepth float64
	err      error
}

func (l *loadgen) startScraper(ctx context.Context) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			m, err := l.scrape(ctx)
			if err != nil {
				s.err = err
				return
			}
			s.maxDepth = max(s.maxDepth, m["radiosd_queue_depth"])
		}
	}()
	return s
}

// halt stops the scraper and waits for it.
func (s *scraper) halt() {
	close(s.stop)
	<-s.done
}

func encodeAll(reqs []service.SimulateRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// runRadiosd is the child side of the radiosd workload: start the daemon,
// warm it up, then run the plan's steps in order (see radiosdPlan). A
// set-up run is a daemon start until /healthz answers; the first is the
// measured daemon's, the others start and stop a daemon of their own
// between steps.
func runRadiosd(ctx context.Context, in radiosdInput, tr *tracer, su *setups) (report, error) {
	var rep report
	d, took, err := startDaemon(ctx, in.Binary)
	if err != nil {
		return rep, err
	}
	if su != nil {
		su.times = append(su.times, took.Seconds())
		su.run = func() (time.Duration, error) {
			sd, took, err := startDaemon(ctx, in.Binary)
			if err != nil {
				return 0, err
			}
			if out, err := sd.stop(); err != nil {
				return 0, fmt.Errorf("radiosd set-up run: %v\n%s", err, out)
			}
			return took, nil
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	pid := d.cmd.Process.Pid
	l := newLoadgen(d.url, in.Clients, tr)
	defer l.http.CloseIdleConnections()

	warmup, err := encodeAll(in.Warmup)
	if err != nil {
		return rep, err
	}
	var all []sample // every request, in the order sent, for the checks
	var reqs []service.SimulateRequest
	all = append(all, l.closedLoop(ctx, warmup)...)
	reqs = append(reqs, in.Warmup...)

	m0, err := l.scrape(ctx)
	if err != nil {
		return rep, err
	}
	rss0, err := procStatusKB(strconv.Itoa(pid), "VmRSS")
	if err != nil {
		return rep, err
	}

	open := map[string][]sample{} // by phase
	var closed []sample
	var lags, segWalls, segCPUs []float64
	sc := l.startScraper(ctx)
	err = func() error {
		for i, st := range in.Steps {
			if err := su.before(i, len(in.Steps)); err != nil {
				return err
			}
			bodies, err := encodeAll(st.Requests)
			if err != nil {
				return err
			}
			var out []sample
			if st.Rate == 0 {
				c0, err := procCPUSeconds(pid)
				if err != nil {
					return err
				}
				t0 := time.Now()
				out = l.closedLoop(ctx, bodies)
				segWalls = append(segWalls, time.Since(t0).Seconds())
				c1, err := procCPUSeconds(pid)
				if err != nil {
					return err
				}
				segCPUs = append(segCPUs, c1-c0)
				closed = append(closed, out...)
			} else {
				var lag []float64
				out, lag = l.openLoop(ctx, bodies, st.DueNS)
				open[st.Phase] = append(open[st.Phase], out...)
				lags = append(lags, lag...)
			}
			all = append(all, out...)
			reqs = append(reqs, st.Requests...)
		}
		return nil
	}()
	sc.halt()
	if err != nil {
		return rep, err
	}
	if sc.err != nil {
		return rep, sc.err
	}

	m := metrics{}
	for phase, out := range open {
		lat := make([]float64, len(out))
		for i, s := range out {
			lat[i] = s.latency()
		}
		m.setPercentile("loadgen.p50_ms_"+phase, p50(lat))
		if p, ok := tailPercentile(lat, 99); ok {
			m.setPercentile("loadgen.p99_ms_"+phase, p)
		}
	}
	measured := all[len(in.Warmup):]
	segs := float64(len(segWalls))
	wall, cpu := segs*median(segWalls), segs*median(segCPUs)
	segQ1, segQ3 := quartiles(segWalls)

	m1, err := l.scrape(ctx)
	if err != nil {
		return rep, err
	}
	rss1, err := procStatusKB(strconv.Itoa(pid), "VmRSS")
	if err != nil {
		return rep, err
	}
	hwm, err := procStatusKB(strconv.Itoa(pid), "VmHWM")
	if err != nil {
		return rep, err
	}
	l.http.CloseIdleConnections()
	stopped = true
	drainOut, drainErr := d.stop()
	if drainErr != nil {
		rep.Checks = append(rep.Checks, fmt.Sprintf("SIGTERM drain: radiosd exited with %v", drainErr))
	}
	if !strings.Contains(drainOut, "active=0") {
		rep.Checks = append(rep.Checks, fmt.Sprintf("SIGTERM drain did not report active=0: %q", drainOut))
	}

	// Counts over every request, warm-up included.
	for _, s := range all {
		rep.Attempted++
		switch {
		case !s.ok():
			rep.Failed++
			if rep.Failures == nil {
				rep.Failures = map[string]int{}
			}
			rep.Failures[fmt.Sprintf("%d %s", s.status, bytes.TrimSpace(s.body))]++
		case s.resent > 0:
			rep.Resent++
		}
	}
	var okMeasured int64
	var hits, misses []float64
	for _, s := range measured {
		if !s.ok() {
			continue
		}
		okMeasured++
		if s.hit {
			hits = append(hits, s.serviceTime())
		} else {
			misses = append(misses, s.serviceTime())
		}
	}
	delta := func(name string) float64 { return m1[name] - m0[name] }
	completed := delta("radiosd_jobs_completed_total")
	lookups := delta("radiosd_cache_hits_total") + delta("radiosd_cache_misses_total")

	m.set("wall_s", wall, fmt.Sprintf("%d requests closed-loop in %d segments (quartiles %.3g, %.3g s), %.4g req/s",
		len(closed), len(segWalls), segQ1, segQ3, float64(len(closed))/wall))
	m.set("cpu_s", cpu, fmt.Sprintf("daemon CPU over the closed loop, %d x the median segment", len(segCPUs)))
	m.set("peak_rss_mb", float64(hwm)/1024, "daemon VmHWM")
	m.set("loadgen.closed_rps", float64(len(closed))/wall)
	if p, ok := tailPercentile(lags, 99); ok {
		m.setPercentile("loadgen.lag_p99_ms", p)
		if p.Value > 0.002 {
			rep.Invalid = fmt.Sprintf("load generator lag p%.4g is %.3g ms (over 2 ms)", p.P, p.Value*1e3)
		}
	}
	m.set("loadgen.requests", float64(len(measured)))
	m.setPercentile("service.hit_p50_ms", p50(hits))
	if p, ok := tailPercentile(misses, 99); ok {
		m.setPercentile("service.miss_p99_ms", p)
	}
	m.set("service.cache_hit_ratio", ratio(delta("radiosd_cache_hits_total"), lookups),
		fmt.Sprintf("of %.0f lookups", lookups))
	m.set("service.jobs_completed", completed)
	m.set("service.jobs_rejected", delta("radiosd_jobs_rejected_total"))
	m.set("service.lost_responses", completed-float64(okMeasured))
	m.set("service.queue_depth_max", sc.maxDepth)
	m.set("service.rss_kb_per_1k_jobs", ratio(float64(rss1-rss0), completed)*1000)
	m.set("radio.steps", delta("obs_steps_total"))
	m.set("radio.transmissions", delta("obs_transmissions_total"))
	m.set("radio.receptions", delta("obs_receptions_total"))
	m.set("radio.collisions", delta("obs_collisions_total"))
	m.set("radio.silent_steps", delta("obs_silent_steps_total"))
	m.set("fault.events", delta("obs_fault_events_total"))
	rep.Metrics = m
	rep.Checks = append(rep.Checks, checkResponses(reqs, all)...)
	return rep, nil
}

// checkResponses compares every checkEvery-th 200-response body with the
// JSON of the same simulation run directly through the library, and
// reports each difference. Checks are grouped by topology so each graph is
// built once.
func checkResponses(reqs []service.SimulateRequest, all []sample) []string {
	byKey := map[string][]int{}
	var keys []string
	okSeen := 0
	for i, s := range all {
		if !s.ok() {
			continue
		}
		okSeen++
		if okSeen%checkEvery != 0 {
			continue
		}
		key, err := reqs[i].Topology.Canonical()
		if err != nil {
			return []string{fmt.Sprintf("request %d: %v", i, err)}
		}
		if byKey[key] == nil {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], i)
	}
	sort.Strings(keys)
	var fails []string
	runner := radio.NewRunner()
	for _, key := range keys {
		idx := byKey[key]
		g, err := reqs[idx[0]].Topology.Build()
		if err != nil {
			fails = append(fails, fmt.Sprintf("building %s: %v", key, err))
			continue
		}
		for _, i := range idx {
			want, err := libraryResponse(runner, g, key, reqs[i])
			if err != nil {
				fails = append(fails, fmt.Sprintf("request %d: %v", i, err))
				continue
			}
			if !bytes.Equal(all[i].body, want) {
				fails = append(fails, fmt.Sprintf("request %d: radiosd answered %q, the library gives %q", i, all[i].body, want))
			}
		}
	}
	return fails
}

// libraryResponse runs req on g directly and encodes the response radiosd
// should have sent for it.
func libraryResponse(runner *radio.Runner, g *graph.Graph, key string, req service.SimulateRequest) ([]byte, error) {
	p, err := protocol(req.Protocol)
	if err != nil {
		return nil, err
	}
	var res radio.Result
	before := runner.Counters()
	err = runner.RunInto(&res, g, p, radio.Config{Seed: req.Seed}, radio.Options{MaxSteps: req.MaxSteps})
	if err != nil && !errors.Is(err, radio.ErrStepLimit) {
		return nil, err
	}
	resp := service.SimulateResponse{
		Topology: key,
		Protocol: req.Protocol,
		Seed:     req.Seed,
		Result: service.SimulateResult{
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
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
