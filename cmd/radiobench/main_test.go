package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocradio/internal/experiment/benchjson"
)

// TestRunWithCancelledContext drives the SIGINT path directly: a cancelled
// context must produce a non-nil error (so main exits non-zero), and the
// partial BENCH_*.json must still be written, schema-valid, and flagged
// interrupted.
func TestRunWithCancelledContext(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := runWith(ctx, options{only: "E5", quick: true, jsonDir: dir, runID: "sigint"}, &out)
	if err == nil {
		t.Fatal("cancelled run returned nil error (process would exit 0)")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want an interruption error", err)
	}

	path := filepath.Join(dir, benchjson.Filename("sigint"))
	f, ferr := os.Open(path)
	if ferr != nil {
		t.Fatalf("partial record not written: %v", ferr)
	}
	defer f.Close()
	rec, derr := benchjson.Decode(f)
	if derr != nil {
		t.Fatalf("partial record not schema-valid: %v", derr)
	}
	if !rec.Interrupted {
		t.Fatal("partial record not flagged interrupted")
	}
	if rec.Schema != benchjson.SchemaVersion {
		t.Fatalf("partial record schema %d, want %d", rec.Schema, benchjson.SchemaVersion)
	}
	if rec.Experiments == nil {
		t.Fatal("experiments field absent (null) in partial record")
	}
}

// TestRunWithCompletes is the happy-path counterpart: two quick experiments
// run to completion, the record is written with manifest, per-experiment
// counters, and (for the pooled-trial experiment) trial statistics, and it
// is not interrupted. E2 runs its trials through the experiment trial
// runner, which meters them; E5 runs its simulations outside it, so it
// carries counters but no trial stats.
func TestRunWithCompletes(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := runWith(context.Background(), options{only: "E2,E5", quick: true, seed: 1, jsonDir: dir, runID: "ok"}, &out)
	if err != nil {
		t.Fatalf("runWith: %v", err)
	}
	f, ferr := os.Open(filepath.Join(dir, benchjson.Filename("ok")))
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	rec, derr := benchjson.Decode(f)
	if derr != nil {
		t.Fatal(derr)
	}
	if rec.Interrupted || len(rec.Experiments) != 2 ||
		rec.Experiments[0].ID != "E2" || rec.Experiments[1].ID != "E5" {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if !strings.Contains(out.String(), "E5") {
		t.Fatal("rendered output missing the experiment table")
	}
	if rec.Manifest == nil || rec.Manifest.GoVersion == "" || rec.Manifest.Flags["seed"] != "1" {
		t.Fatalf("record missing the run manifest: %+v", rec.Manifest)
	}
	for _, e := range rec.Experiments {
		if e.Counters == nil || e.Counters.Steps == 0 || e.Counters.Transmissions == 0 {
			t.Fatalf("%s: record missing aggregated engine counters: %+v", e.ID, e.Counters)
		}
		if e.Counters.FaultEvents() != 0 {
			t.Fatalf("%s: fault counters fired on a fault-free experiment: %+v", e.ID, e.Counters)
		}
	}
	if ts := rec.Experiments[0].TrialStats; ts == nil || ts.Trials == 0 || ts.MeanNS <= 0 {
		t.Fatalf("E2: record missing trial stats: %+v", ts)
	}
}

// TestRunWithRejectsBadFlags: a negative -trials and an unknown -only id
// are errors before anything runs, and no record is written.
func TestRunWithRejectsBadFlags(t *testing.T) {
	for _, o := range []options{
		{only: "E2", quick: true, trials: -4},
		{only: "E42", quick: true},
	} {
		dir := t.TempDir()
		o.jsonDir, o.runID = dir, "bad"
		var out bytes.Buffer
		if err := runWith(context.Background(), o, &out); err == nil {
			t.Fatalf("%+v: accepted", o)
		}
		if _, err := os.Stat(filepath.Join(dir, benchjson.Filename("bad"))); !os.IsNotExist(err) {
			t.Fatalf("%+v: record written (stat err %v)", o, err)
		}
	}
}

// TestRunWithProfiles: the three profile flags produce non-empty files even
// though the run is tiny.
func TestRunWithProfiles(t *testing.T) {
	dir := t.TempDir()
	o := options{
		only: "E5", quick: true, seed: 1,
		cpuProfile:       filepath.Join(dir, "cpu.pprof"),
		memProfile:       filepath.Join(dir, "mem.pprof"),
		goroutineProfile: filepath.Join(dir, "grt.pprof"),
	}
	var out bytes.Buffer
	if err := runWith(context.Background(), o, &out); err != nil {
		t.Fatalf("runWith: %v", err)
	}
	// The CPU profile is flushed by runWith's deferred StopCPUProfile, so it
	// is complete by the time runWith returns.
	for _, p := range []string{o.cpuProfile, o.memProfile, o.goroutineProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestWriteProfileUnknownName: a bogus profile name is an error, not a
// panic.
func TestWriteProfileUnknownName(t *testing.T) {
	if err := writeProfile("no-such-profile", filepath.Join(t.TempDir(), "x")); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestFlagMap: the manifest flag rendering covers every determinism-relevant
// option and omits empty optionals.
func TestFlagMap(t *testing.T) {
	m := options{quick: true, seed: 7, trials: 3, parallel: 2, verify: true}.flagMap()
	for k, want := range map[string]string{
		"quick": "true", "seed": "7", "trials": "3", "parallel": "2", "verify": "true",
	} {
		if m[k] != want {
			t.Fatalf("flagMap[%q] = %q, want %q", k, m[k], want)
		}
	}
	if _, ok := m["only"]; ok {
		t.Fatal("empty -only rendered")
	}
	if got := (options{only: "E1,E2", runID: "x"}).flagMap(); got["only"] != "E1,E2" || got["runid"] != "x" {
		t.Fatalf("optional flags lost: %+v", got)
	}
}
