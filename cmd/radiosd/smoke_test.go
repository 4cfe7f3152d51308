package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"context"

	"adhocradio/internal/graph"
	"adhocradio/internal/service"
)

// TestMain turns the test binary into a radiosd child process when
// re-executed with RADIOSD_CHILD=1 — the helper-process pattern, so the
// smoke test below can deliver a real SIGTERM to a real daemon and assert a
// clean drain, instead of faking cancellation in-process.
func TestMain(m *testing.M) {
	if os.Getenv("RADIOSD_CHILD") == "1" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func childMain() int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{
		addr:       "127.0.0.1:0",
		workers:    4,
		queueCap:   16,
		cacheCap:   8,
		maxTimeout: 30 * time.Second,
		drainGrace: 2 * time.Minute,
	}
	if err := runWith(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radiosd:", err)
		return 1
	}
	return 0
}

// TestServiceSmoke is the end-to-end gate `make service-smoke` runs (under
// -race): boot a real radiosd process, hammer it with concurrent clients
// mixing cached and uncached topologies, assert every response is
// deterministic (identical request → byte-identical body), scrape /metrics,
// SIGTERM, and require a clean drain: exit 0, every job completed, zero
// failed, zero rejected, zero active.
func TestServiceSmoke(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal delivery")
	}
	if testing.Short() {
		t.Skip("spawns a child daemon process")
	}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RADIOSD_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Wait for the listen line to learn the port; keep draining stdout so
	// the child never blocks, capturing it for the drain-report assertions.
	addrCh := make(chan string, 1)
	var outMu sync.Mutex
	var childOut strings.Builder
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			outMu.Lock()
			childOut.WriteString(line)
			childOut.WriteByte('\n')
			outMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "radiosd: listening on http://"); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(time.Minute):
		t.Fatal("timed out waiting for the child's listen line")
	}

	// The client mix: three distinct topologies × repeated seeds, so the
	// compiled-graph cache sees both cold misses and heavy hit traffic.
	requests := []service.SimulateRequest{
		{Topology: topoSpec("gnp", 96, 0.08, 11), Protocol: "kp", Seed: 5},
		{Topology: topoSpec("path", 64, 0, 0), Protocol: "ss", Seed: 0},
		{Topology: topoSpec("gnp", 80, 0.1, 3), Protocol: "bgi", Seed: 9},
	}
	const clients = 8
	const perClient = 6
	type outcome struct {
		req  int
		body []byte
		code int
	}
	outcomes := make(chan outcome, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ri := (c + i) % len(requests)
				var buf bytes.Buffer
				if err := json.NewEncoder(&buf).Encode(requests[ri]); err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(base+"/v1/simulate", "application/json", &buf)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				outcomes <- outcome{ri, body, resp.StatusCode}
			}
		}(c)
	}
	wg.Wait()
	close(outcomes)

	// Determinism across every client and cache state: all bodies for one
	// request are byte-identical.
	canonical := make(map[int][]byte)
	total := 0
	for o := range outcomes {
		total++
		if o.code != http.StatusOK {
			t.Fatalf("request %d answered %d: %s", o.req, o.code, o.body)
		}
		if prev, ok := canonical[o.req]; !ok {
			canonical[o.req] = o.body
		} else if !bytes.Equal(prev, o.body) {
			t.Fatalf("nondeterministic response for request %d:\n%s\nvs\n%s", o.req, prev, o.body)
		}
	}
	if total != clients*perClient {
		t.Fatalf("got %d responses, want %d", total, clients*perClient)
	}

	// Metrics reflect the traffic: every job completed, cache hits
	// dominate (3 misses, the rest hits).
	metrics := httpGetBody(t, base+"/metrics")
	for _, want := range []string{
		"radiosd_jobs_completed_total 48",
		"radiosd_jobs_failed_total 0",
		"radiosd_jobs_rejected_total 0",
		"radiosd_cache_misses_total 3",
		"radiosd_cache_hits_total 45",
		"radiosd_draining 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if hz := httpGetBody(t, base+"/healthz"); !strings.Contains(hz, `"ok"`) {
		t.Fatalf("healthz = %s", hz)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		outMu.Lock()
		defer outMu.Unlock()
		t.Fatalf("child exited dirty: %v\n%s", err, childOut.String())
	}

	outMu.Lock()
	out := childOut.String()
	outMu.Unlock()
	drained := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "radiosd: drained:") {
			drained = line
		}
	}
	if drained == "" {
		t.Fatalf("no drain report in child output:\n%s", out)
	}
	for _, want := range []string{"completed=48", "failed=0", "rejected=0", "active=0"} {
		if !strings.Contains(drained, want) {
			t.Fatalf("drain report %q missing %q", drained, want)
		}
	}
}

func topoSpec(kind string, n int, p float64, seed uint64) graph.Spec {
	return graph.Spec{Kind: kind, N: n, P: p, Seed: seed}
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
