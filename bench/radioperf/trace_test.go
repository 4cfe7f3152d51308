package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "harness", Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40 ns, counted once.
		{ID: 2, Parent: 1, Layer: "graph", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "graph", Start: 30, End: 50},
		// A child running past its parent's end is clipped to it.
		{ID: 4, Parent: 1, Layer: "radio", Start: 90, End: 120},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 4, Layer: "radio", Start: 95, End: 105},
		// A root span with no children is all self time.
		{ID: 6, Layer: "harness", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 30, 3: 20, 4: 30 - 10, 5: 10, 6: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	wantSum := []layerTime{
		{Layer: "graph", Spans: 2, BusyNS: 50, SelfNS: 50},
		{Layer: "harness", Spans: 2, BusyNS: 160, SelfNS: 110},
		{Layer: "radio", Spans: 2, BusyNS: 40, SelfNS: 30},
	}
	if len(sum) != len(wantSum) {
		t.Fatalf("summary %+v, want %+v", sum, wantSum)
	}
	for i := range sum {
		if sum[i] != wantSum[i] {
			t.Errorf("summary[%d] = %+v, want %+v", i, sum[i], wantSum[i])
		}
	}
	spans[1].Name, spans[2].Name = "build", "build"
	if got := busy(spans, "graph", "build"); got != 50 {
		t.Errorf("busy(graph, build) = %d, want 50", got)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer // untraced runs: every call is a no-op
	if id := off.start(1, 0, "radio", "run").end(); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}

	tr := newTracer()
	root := tr.start(7, 0, "harness", "trial")
	child := tr.start(7, root.ID, "graph", "build")
	child.end()
	root.end()
	at := time.Now()
	tr.record(8, 0, "loadgen", "request", at, at.Add(time.Millisecond))
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	if tr.spans[0].Parent != root.ID || tr.spans[0].Trace != 7 {
		t.Errorf("child span %+v does not point at its root %d", tr.spans[0], root.ID)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans, summaries int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var v map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if _, ok := v["summary"]; ok {
			summaries++
		} else {
			spans++
		}
	}
	if spans != 3 || summaries != 3 {
		t.Errorf("trace file has %d spans and %d summaries, want 3 and 3", spans, summaries)
	}
}
