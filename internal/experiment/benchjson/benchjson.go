// Package benchjson defines the stable, machine-readable schema for
// radiobench runs: the BENCH_<id>.json files that record the repository's
// performance trajectory (archived by CI on every push).
//
// The schema separates the deterministic payload — seed, configuration,
// and every experiment table cell, which must be bit-identical across
// worker counts for a fixed seed — from the timing observations, which are
// inherently nondeterministic. Canonical returns the projection with all
// timing stripped; two runs of the same seed and sizes must produce
// byte-identical Canonical encodings whatever their -parallel setting (the
// determinism tests assert exactly that).
//
// Schema evolution rule: additions are backward-compatible (new optional
// fields); any change to the meaning or encoding of an existing field bumps
// SchemaVersion.
package benchjson

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"adhocradio/internal/experiment"
	"adhocradio/internal/obs"
)

// SchemaVersion identifies the encoding; see the package comment for the
// evolution rule.
//
// v2: the run environment moved from loose top-level fields (go_version,
// gomaxprocs) into an explicit Manifest, and experiments gained aggregated
// engine Counters (deterministic, kept by Canonical) and per-trial wall-time
// TrialStats (observational, stripped like Timing).
const SchemaVersion = 2

// Manifest records the provenance of a run: the toolchain, the host shape,
// the build's VCS state, and the effective command-line flags. Everything in
// it describes the environment, not the workload, so Canonical strips it
// whole.
type Manifest struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// VCSRevision is the vcs.revision build setting (empty for builds
	// without embedded VCS info, e.g. `go run` from a dirty cache).
	VCSRevision string `json:"vcs_revision,omitempty"`
	// VCSModified reports vcs.modified: the working tree was dirty.
	VCSModified bool `json:"vcs_modified,omitempty"`
	// Flags is the resolved flag set of the producing command. Go's JSON
	// encoder sorts map keys, so the encoding stays deterministic.
	Flags map[string]string `json:"flags,omitempty"`
}

// NewManifest captures the current process environment. VCS fields come
// from debug.ReadBuildInfo — no git subprocess, so this works in containers
// without git and in test binaries (where the fields simply stay empty).
func NewManifest(flags map[string]string) *Manifest {
	m := &Manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Flags:      flags,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// TrialStats summarizes the per-trial wall-time histogram of one experiment:
// how long individual pool trials took, independent of the worker count that
// interleaved them. Like Timing it is observational and stripped by
// Canonical.
type TrialStats struct {
	Trials  int64 `json:"trials"`
	TotalNS int64 `json:"total_ns"`
	MinNS   int64 `json:"min_ns"`
	MaxNS   int64 `json:"max_ns"`
	MeanNS  int64 `json:"mean_ns"`
	// P50NS and P95NS are log2-bucket upper bounds (see obs.Hist), not
	// exact order statistics.
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
}

// TrialStatsFrom projects an obs.Hist into the schema form (nil when the
// histogram is empty, so quiet experiments carry no field at all).
func TrialStatsFrom(h obs.Hist) *TrialStats {
	if h.Count == 0 {
		return nil
	}
	return &TrialStats{
		Trials:  h.Count,
		TotalNS: h.TotalNS,
		MinNS:   h.MinNS,
		MaxNS:   h.MaxNS,
		MeanNS:  h.MeanNS(),
		P50NS:   h.ApproxQuantileNS(0.50),
		P95NS:   h.ApproxQuantileNS(0.95),
	}
}

// Timing records wall-clock and CPU time for a run or a single experiment.
// Timing is observational: it never participates in determinism checks and
// is stripped by Canonical.
type Timing struct {
	WallMS int64 `json:"wall_ms"`
	// CPUMS is the process CPU time consumed (user+system); 0 when the
	// platform does not report it or the caller did not measure it.
	CPUMS int64 `json:"cpu_ms,omitempty"`
}

// Experiment is one experiment's table plus its per-experiment
// observations.
type Experiment struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// ShapeCheck is "" (not run), "pass", or "fail: <reason>" — the result
	// of the experiment's qualitative-claim check under -verify.
	ShapeCheck string `json:"shape_check,omitempty"`
	// Counters is the sum of engine counters over every simulation the
	// experiment ran. The totals are a deterministic function of (seed,
	// sizes) — integer addition commutes across the worker schedule — so
	// Canonical keeps them: a counter drift across -parallel values is a
	// determinism bug, and the canonical-encoding tests will catch it.
	Counters *obs.Counters `json:"counters,omitempty"`
	// TrialStats aggregates per-trial wall times (observational).
	TrialStats *TrialStats `json:"trial_stats,omitempty"`
	Timing     *Timing     `json:"timing,omitempty"`
}

// Run is the top-level BENCH_<id>.json document.
type Run struct {
	Schema int `json:"schema"`
	// ID names the run; the conventional file name is Filename(ID).
	ID   string `json:"id"`
	Seed uint64 `json:"seed"`
	// Quick records whether reduced problem sizes were used.
	Quick bool `json:"quick"`
	// Trials is the configured trials-per-point override (0 = defaults).
	Trials int `json:"trials"`
	// Parallel is the configured worker count (0 = all cores).
	Parallel int `json:"parallel"`
	// Workers is the resolved worker count actually used.
	Workers int `json:"workers,omitempty"`
	// Manifest describes the producing environment (schema v2; stripped by
	// Canonical).
	Manifest *Manifest `json:"manifest,omitempty"`
	// Interrupted is true when the run was cancelled (SIGINT) and the
	// document holds only the experiments completed before cancellation.
	Interrupted bool         `json:"interrupted,omitempty"`
	Experiments []Experiment `json:"experiments"`
	Timing      *Timing      `json:"timing,omitempty"`
}

// FromTable converts a rendered experiment table into its schema form.
func FromTable(t *experiment.Table) Experiment {
	e := Experiment{
		ID:      t.ID,
		Title:   t.Title,
		Columns: append([]string(nil), t.Columns...),
		Rows:    make([][]string, len(t.Rows)),
		Notes:   append([]string(nil), t.Notes...),
	}
	for i, row := range t.Rows {
		e.Rows[i] = append([]string(nil), row...)
	}
	return e
}

// Canonical returns a deep copy of r with every nondeterministic field
// (timing, trial-time statistics, the environment manifest, the resolved
// worker count, and the configured parallelism itself) zeroed: the
// projection that must be byte-identical across -parallel settings for a
// fixed seed. Engine counters survive the projection on purpose — they are
// part of the deterministic payload.
func (r *Run) Canonical() *Run {
	c := *r
	c.Parallel = 0
	c.Workers = 0
	c.Manifest = nil
	c.Timing = nil
	c.Experiments = make([]Experiment, len(r.Experiments))
	for i, e := range r.Experiments {
		e.Timing = nil
		e.TrialStats = nil
		c.Experiments[i] = e
	}
	return &c
}

// Encode writes r as stable, indented JSON. Field order follows the struct
// declarations, so the byte stream is a deterministic function of the
// document.
func Encode(w io.Writer, r *Run) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	return nil
}

// Decode reads a document produced by Encode and validates its schema
// version.
func Decode(rd io.Reader) (*Run, error) {
	var r Run
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchjson: schema %d, this build reads %d", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// Filename returns the conventional file name for a run id.
func Filename(id string) string {
	return "BENCH_" + id + ".json"
}

// WriteFileAtomic writes r to path via a temp file in the same directory
// plus rename, so a crash, a second SIGINT, or a full disk can never leave
// a truncated document — or a stray .tmp file — behind. The single deferred
// cleanup covers every error path (encode, close, rename) including panics,
// which is why all writers route through here instead of hand-rolling the
// temp/rename dance.
func WriteFileAtomic(path string, r *Run) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench-*.tmp")
	if err != nil {
		return fmt.Errorf("benchjson: writing %s: %w", path, err)
	}
	name := tmp.Name()
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(name)
		}
	}()
	if err := Encode(tmp, r); err != nil {
		return fmt.Errorf("benchjson: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("benchjson: writing %s: %w", path, err)
	}
	if err := os.Rename(name, path); err != nil {
		return fmt.Errorf("benchjson: writing %s: %w", path, err)
	}
	committed = true
	return nil
}

// ReadFile decodes the document at path.
func ReadFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	defer f.Close()
	r, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return r, nil
}
