package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"adhocradio/internal/experiment/benchjson"
	"adhocradio/internal/obs"
)

// writeRun writes a one-experiment record with the given rows and returns
// its path. Everything Canonical strips (timing, manifest, worker count)
// varies with tag, so only rows and counters reach the comparison.
func writeRun(t *testing.T, tag string, rows [][]string) string {
	t.Helper()
	r := &benchjson.Run{
		Schema:   benchjson.SchemaVersion,
		ID:       "x",
		Seed:     7,
		Quick:    true,
		Workers:  len(tag),
		Manifest: &benchjson.Manifest{GoVersion: tag},
		Experiments: []benchjson.Experiment{{
			ID:       "E1",
			Title:    "demo",
			Columns:  []string{"n", "t"},
			Rows:     rows,
			Counters: &obs.Counters{Steps: 15},
			Timing:   &benchjson.Timing{WallMS: int64(len(tag))},
		}},
		Timing: &benchjson.Timing{WallMS: 1000 * int64(len(tag))},
	}
	path := filepath.Join(t.TempDir(), benchjson.Filename(tag))
	if err := benchjson.WriteFileAtomic(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

var rows = [][]string{{"8", "1"}, {"16", "2"}}

// TestIdenticalIgnoresObservations: records that differ only in fields
// Canonical strips compare equal.
func TestIdenticalIgnoresObservations(t *testing.T) {
	ref, got := writeRun(t, "ref", rows), writeRun(t, "other", rows)
	var stdout, stderr bytes.Buffer
	if code := run([]string{ref, got}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "byte-identical") {
		t.Fatalf("missing confirmation:\n%s", stdout.String())
	}
}

// TestDetectsDivergence: a changed cell exits 1 and names the first
// diverging line; a missing row is reported even though every shared line
// matches up to it.
func TestDetectsDivergence(t *testing.T) {
	ref := writeRun(t, "ref", rows)
	for name, c := range map[string]struct {
		rows [][]string
		want string
	}{
		"changed-cell": {[][]string{{"8", "1"}, {"16", "3"}}, `"3"`},
		"missing-row":  {rows[:1], "differ at line"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{ref, writeRun(t, "new", c.rows)}, &stdout, &stderr); code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Fatalf("stderr %q, want mention of %q", stderr.String(), c.want)
			}
		})
	}
}

func TestFirstDiffLength(t *testing.T) {
	if err := firstDiff([]byte("a\nb"), []byte("a\nb\nc")); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("err = %v, want a length mismatch", err)
	}
}

func TestReadError(t *testing.T) {
	ref := writeRun(t, "ref", rows)
	var stdout, stderr bytes.Buffer
	if code := run([]string{ref, filepath.Join(t.TempDir(), "nope.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no such file") {
		t.Fatalf("stderr %q does not name the read error", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	ref := writeRun(t, "ref", rows)
	for _, args := range [][]string{nil, {ref}, {ref, ref, ref}, {"-against", ref}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("args %q: exit %d, want 2", args, code)
		}
	}
}
