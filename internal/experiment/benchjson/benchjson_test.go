package benchjson

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocradio/internal/experiment"
	"adhocradio/internal/obs"
)

func sampleRun() *Run {
	tab := &experiment.Table{
		ID:      "E1",
		Title:   "demo",
		Columns: []string{"n", "t"},
		Notes:   []string{"a note"},
	}
	tab.AddRow(1024, 385.25)
	e := FromTable(tab)
	e.ShapeCheck = "pass"
	e.Timing = &Timing{WallMS: 1234, CPUMS: 2345}
	e.Counters = &obs.Counters{Steps: 100, Transmissions: 700, Receptions: 650, Collisions: 50}
	e.TrialStats = &TrialStats{Trials: 5, TotalNS: 5000, MinNS: 800, MaxNS: 1400, MeanNS: 1000, P50NS: 1024, P95NS: 1400}
	return &Run{
		Schema:   SchemaVersion,
		ID:       "quick_seed1",
		Seed:     1,
		Quick:    true,
		Parallel: 8,
		Workers:  8,
		Manifest: &Manifest{
			GoVersion:   "go1.22",
			GOOS:        "linux",
			GOARCH:      "amd64",
			NumCPU:      4,
			GOMAXPROCS:  4,
			VCSRevision: "abc123",
			Flags:       map[string]string{"quick": "true", "seed": "1"},
		},
		Experiments: []Experiment{e},
		Timing:      &Timing{WallMS: 5000},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleRun()
	var buf bytes.Buffer
	if err := Encode(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != r.ID || got.Seed != r.Seed || len(got.Experiments) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	e := got.Experiments[0]
	if e.ID != "E1" || e.Rows[0][1] != "385.25" || e.ShapeCheck != "pass" {
		t.Fatalf("experiment mangled: %+v", e)
	}
	if e.Timing == nil || e.Timing.WallMS != 1234 {
		t.Fatalf("timing lost: %+v", e.Timing)
	}
	if e.Counters == nil || e.Counters.Transmissions != 700 {
		t.Fatalf("counters lost: %+v", e.Counters)
	}
	if e.TrialStats == nil || e.TrialStats.Trials != 5 {
		t.Fatalf("trial stats lost: %+v", e.TrialStats)
	}
	if got.Manifest == nil || got.Manifest.VCSRevision != "abc123" || got.Manifest.Flags["seed"] != "1" {
		t.Fatalf("manifest lost: %+v", got.Manifest)
	}
}

func TestEncodeIsStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := Encode(&a, sampleRun()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, sampleRun()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same document differ")
	}
	if !bytes.HasSuffix(a.Bytes(), []byte("\n")) {
		t.Fatal("encoding not newline-terminated")
	}
}

func TestCanonicalStripsNondeterminism(t *testing.T) {
	r := sampleRun()
	c := r.Canonical()
	if c.Timing != nil || c.Experiments[0].Timing != nil {
		t.Fatal("Canonical kept timing")
	}
	if c.Parallel != 0 || c.Workers != 0 || c.Manifest != nil {
		t.Fatalf("Canonical kept environment fields: %+v", c)
	}
	if c.Experiments[0].TrialStats != nil {
		t.Fatal("Canonical kept trial stats")
	}
	if c.Experiments[0].Counters == nil || c.Experiments[0].Counters.Transmissions != 700 {
		t.Fatalf("Canonical dropped the deterministic counters: %+v", c.Experiments[0].Counters)
	}
	// The original must be untouched (deep copy).
	if r.Timing == nil || r.Experiments[0].Timing == nil || r.Parallel != 8 || r.Manifest == nil ||
		r.Experiments[0].TrialStats == nil {
		t.Fatal("Canonical mutated its receiver")
	}
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"wall_ms", "go_version", "trial_stats", "vcs_revision"} {
		if strings.Contains(buf.String(), leak) {
			t.Fatalf("canonical encoding leaks %q:\n%s", leak, buf.String())
		}
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema": 99, "id": "x"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestNewManifestCapturesEnvironment(t *testing.T) {
	m := NewManifest(map[string]string{"quick": "true"})
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.NumCPU < 1 || m.GOMAXPROCS < 1 {
		t.Fatalf("incomplete manifest: %+v", m)
	}
	if m.Flags["quick"] != "true" {
		t.Fatalf("flags lost: %+v", m.Flags)
	}
}

func TestTrialStatsFrom(t *testing.T) {
	var h obs.Hist
	if TrialStatsFrom(h) != nil {
		t.Fatal("empty histogram produced stats")
	}
	for _, ns := range []int64{800, 1000, 1200} {
		h.Observe(ns)
	}
	s := TrialStatsFrom(h)
	if s == nil || s.Trials != 3 || s.TotalNS != 3000 || s.MinNS != 800 || s.MaxNS != 1200 || s.MeanNS != 1000 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.P50NS < 800 || s.P95NS > 2*1200 {
		t.Fatalf("quantiles out of range: %+v", s)
	}
}

func TestFilename(t *testing.T) {
	if got := Filename("quick_seed1"); got != "BENCH_quick_seed1.json" {
		t.Fatalf("Filename = %q", got)
	}
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_x.json")
	if err := WriteFileAtomic(path, sampleRun()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "quick_seed1" || len(got.Experiments) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	assertNoTempFiles(t, dir)
}

// TestWriteFileAtomicErrorLeavesNoTemp: every failure path must remove the
// temp file. Failing before the fix: cmd/radiobench's hand-rolled writer
// could leak .tmp files when an error path was missed. The rename failure
// here is forced by making the target path a directory.
func TestWriteFileAtomicErrorLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "BENCH_x.json")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, sampleRun()); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	assertNoTempFiles(t, dir)

	// A missing parent directory fails at temp creation; nothing to leak.
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x.json"), sampleRun()); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	assertNoTempFiles(t, dir)
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
