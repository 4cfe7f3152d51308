// Command radioperf is the repository's end-to-end benchmark: the wall
// time, CPU time, memory and set-up cost of the experiment suite, of
// dense and sparse broadcast trials, and of the radiosd daemon under load,
// with per-layer numbers from a traced run. Run it from the repository
// root through run.sh, which builds it (and radiosd) first:
//
//	bash bench/radioperf/run.sh                          # all workloads, seed 1
//	bash bench/radioperf/run.sh -workload radiosd -seed 7
//	bash bench/radioperf/run.sh -workload sparse-trials -trace 1
//	bash bench/radioperf/run.sh -runs 5 -out bench/radioperf/baseline/setA
//	bash bench/radioperf/run.sh compare PARENT_DIR CHANGE_DIR
//
// Every workload runs in a child process of its own. The parent process
// generates the workload's inputs from -seed and sends the child only those
// inputs; the child times its calls into each layer from outside, checks the
// outputs after the timed region, and reports back. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the exit status is 0 only when every check passed.
// README.md describes the workloads, the metrics and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == childArg:
		err = runChild(os.Stdin, os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = runCompare(os.Args[2:], os.Stdout)
	default:
		err = runParent(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "radioperf:", err)
		os.Exit(1)
	}
}

// workloads lists the workload names in the order -workload all runs them.
var workloads = []string{"suite", "dense-trials", "sparse-trials", "radiosd"}

const (
	// defaultSeconds is the run length BENCHMARK.json gives; the committed
	// digests are for seed 1 at this length.
	defaultSeconds = 12
	// setupRuns is how many times a run sets up its workload; setup_s is
	// the median (see job.SetupRuns).
	setupRuns = 51
	// sparseRounds is how many rounds sparse-trials runs its list in (a
	// dense-trials round is denseRound trials).
	sparseRounds = 6
	// radiosdWarmup and radiosdOpen are radiosd's untimed warm-up requests
	// and its requests at each open-loop rate.
	radiosdWarmup = 200
	radiosdOpen   = 1000
)

// Work sizes per measured second, calibrated on the reference machine (see
// README.md) so that one run of each trial workload measures about
// -seconds, and radiosd's closed loop about 0.7 of it.
const (
	denseRoundsPerSecond  = 0.25
	sparseTrialsPerSecond = 85
	closedRequestsPerSec  = 300
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	runs     int
	out      string
}

// result is one run of one workload, as written to -out and read by
// compare.
type result struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Seconds   int            `json:"seconds"`
	Run       int            `json:"run"`
	Traced    bool           `json:"traced"`
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Resent    int64          `json:"resent,omitempty"`
	Checks    []string       `json:"checks,omitempty"`
	Failures  map[string]int `json:"failures,omitempty"`
	Digest    string         `json:"digest,omitempty"`
	Invalid   string         `json:"invalid,omitempty"`
	Metrics   metrics        `json:"metrics"`
	Manifest  manifest       `json:"manifest"`
}

// line is the result line the last output line carries.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runParent(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("radioperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "measured seconds per run for the trial workloads and radiosd's closed loop")
	fs.IntVar(&o.trace, "trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	fs.IntVar(&o.runs, "runs", 1, "runs of each workload")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "radioperf-out"), "directory for result files and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	run := workloads
	if o.workload != "all" {
		if !contains(workloads, o.workload) {
			return fmt.Errorf("-workload %q: want one of %s or all", o.workload, strings.Join(workloads, ", "))
		}
		run = []string{o.workload}
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.seconds < 1 || o.runs < 1 {
		return errors.New("-seconds and -runs must be at least 1")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("creating -out directory: %w", err)
	}
	var radiosdBin string
	if contains(run, "radiosd") {
		if radiosdBin, err = buildRadiosd(ctx, root); err != nil {
			return err
		}
	}

	var results []result
	for r := 1; r <= o.runs; r++ {
		for _, w := range run {
			res, err := measure(ctx, o, w, r, radiosdBin, stderr)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			printResult(stdout, res)
			name := fmt.Sprintf("%s-seed%d-run%02d.json", w, o.seed, r)
			if res.Traced {
				name = strings.TrimSuffix(name, ".json") + "-traced.json"
			}
			if err := writeJSON(filepath.Join(o.out, name), res); err != nil {
				return err
			}
			results = append(results, res)
		}
	}

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	out := summaryLine(results, defs)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// summaryLine builds the result line. A single result's metrics are its
// own; several results (several workloads or runs) report each metric's
// median per workload, named <workload>.<metric>.
func summaryLine(results []result, defs []metricDef) line {
	out := line{Correct: true, Metrics: map[string]metric{}}
	byWorkload := map[string][]result{}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	if len(results) == 1 {
		out.Metrics = results[0].Metrics.only(defs)
		return out
	}
	for w, rs := range byWorkload {
		for _, d := range defs {
			var vs []float64
			for _, r := range rs {
				vs = append(vs, r.Metrics[d.Name].Value)
			}
			out.Metrics[w+"."+d.Name] = metric{Value: median(vs), Unit: d.Unit}
		}
	}
	return out
}

// measure runs workload w once untraced and, with -trace 1, once more
// traced; the traced run supplies the per-layer metrics and the tracing
// overhead.
func measure(ctx context.Context, o options, w string, run int, radiosdBin string, stderr io.Writer) (result, error) {
	nproc := runtime.NumCPU()
	j := job{Workload: w, SetupRuns: setupRuns}
	switch w {
	case "suite":
		j.Suite = &suiteInput{Seed: suiteSeed(o.seed), Parallel: nproc, Digest: committedDigest(w, o.seed, o.seconds)}
	case "dense-trials", "sparse-trials":
		in := &trialsInput{Workers: nproc, Digest: committedDigest(w, o.seed, o.seconds)}
		if w == "dense-trials" {
			in.Rounds = perSeconds(o.seconds, denseRoundsPerSecond)
			in.Trials = denseTrials(o.seed, in.Rounds)
		} else {
			in.Trials = sparseTrials(o.seed, perSeconds(o.seconds, sparseTrialsPerSecond))
			in.Rounds = sparseRounds
		}
		j.Trials = in
	case "radiosd":
		in := radiosdPlan(o.seed, radiosdWarmup, radiosdOpen, perSeconds(o.seconds, closedRequestsPerSec))
		in.Binary, in.Clients = radiosdBin, nproc
		j.Radiosd = &in
	}

	ready, rep, err := runChildJob(ctx, j, nproc, stderr)
	if err != nil {
		return result{}, err
	}
	setups := append([]float64{ready}, rep.Setup...)
	if w == "radiosd" {
		setups = rep.Setup // the daemon's starts, not the load generator's
	}
	res := result{Workload: w, Seed: o.seed, Seconds: o.seconds, Run: run, Manifest: newManifest()}
	res.absorb(rep)
	res.Metrics.set("setup_s", median(setups), fmt.Sprintf("median of %d", len(setups)))
	res.Metrics.set("ok_ratio", 1-ratio(float64(res.Failed+res.Resent), float64(res.Attempted)),
		fmt.Sprintf("%d of %d operations failed, %d more succeeded only when resent", res.Failed, res.Attempted, res.Resent))
	if o.trace == 0 {
		return res, nil
	}

	j.TracePath = filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d-run%02d.jsonl", w, o.seed, run))
	_, traced, err := runChildJob(ctx, j, nproc, stderr)
	if err != nil {
		return result{}, fmt.Errorf("traced run: %w", err)
	}
	untracedWall := res.Metrics["wall_s"].Value
	res.Traced = true
	res.absorb(traced)
	res.Metrics.set("trace.overhead_pct", 100*(traced.Metrics["wall_s"].Value/untracedWall-1))
	return res, nil
}

// absorb adds a child's report to r: counts and failed checks accumulate,
// metrics of a later (traced) report replace those of an earlier one
// except the end-to-end metrics, which come from the untraced run only.
func (r *result) absorb(rep report) {
	r.Attempted += rep.Attempted
	r.Failed += rep.Failed
	r.Resent += rep.Resent
	r.Checks = append(r.Checks, rep.Checks...)
	for k, n := range rep.Failures {
		if r.Failures == nil {
			r.Failures = map[string]int{}
		}
		r.Failures[k] += n
	}
	if r.Digest != "" && rep.Digest != r.Digest {
		r.Checks = append(r.Checks, fmt.Sprintf("traced run digest %s differs from untraced %s", rep.Digest, r.Digest))
	}
	r.Digest = rep.Digest
	if rep.Invalid != "" {
		r.Invalid = rep.Invalid
	}
	r.Correct = len(r.Checks) == 0
	if r.Metrics == nil {
		r.Metrics = metrics{}
	}
	for name, v := range rep.Metrics {
		if _, e2e := r.Metrics[name]; e2e && isEndToEnd(name) {
			continue
		}
		r.Metrics[name] = v
	}
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

// perSeconds sizes a work list: rate units per measured second.
func perSeconds(seconds int, rate float64) int {
	return max(1, int(math.Round(float64(seconds)*rate)))
}

// printResult writes the human-readable form of one result.
func printResult(w io.Writer, r result) {
	mode := "untraced"
	if r.Traced {
		mode = "untraced + traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  run %d  (%s; nproc %d, %s)\n", r.Workload, r.Seed, r.Run, mode, r.Manifest.NProc, r.Manifest.CPUModel)
	row := func(name string, m metric) {
		fmt.Fprintf(w, "   %-28s %14.6g %-6s %s\n", name, m.Value, m.Unit, m.Note)
	}
	for _, d := range endToEnd {
		row(d.Name, r.Metrics[d.Name])
	}
	var rest []string
	for name, m := range r.Metrics {
		if !isEndToEnd(name) && (r.Traced || m.Value != 0) {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	if len(rest) > 0 {
		fmt.Fprintln(w, "   --")
	}
	for _, name := range rest {
		row(name, r.Metrics[name])
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "   digest %s\n", r.Digest)
	}
	if r.Invalid != "" {
		fmt.Fprintf(w, "   INVALID MEASUREMENT: %s\n", r.Invalid)
	}
	var kinds []string
	for k := range r.Failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "   failed operations: %d x %s\n", r.Failures[k], k)
	}
	if r.Resent > 0 {
		fmt.Fprintf(w, "   lost responses: %d operations succeeded only when resent after a 504 for a completed job\n", r.Resent)
	}
	if r.Correct {
		fmt.Fprintf(w, "   checks: all passed (%d operations, %d failed)\n\n", r.Attempted, r.Failed)
		return
	}
	fmt.Fprintf(w, "   checks: %d FAILED\n", len(r.Checks))
	for _, c := range r.Checks {
		fmt.Fprintf(w, "     - %s\n", c)
	}
	fmt.Fprintln(w)
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory holding the adhocradio go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(b)), "module adhocradio\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the adhocradio repository (no go.mod declaring module adhocradio above the working directory)")
		}
		dir = parent
	}
}

// buildRadiosd builds cmd/radiosd from source into the repository's
// .bench_build directory; the build is not part of any timed region.
func buildRadiosd(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "radiosd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/radiosd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building radiosd: %v\n%s", err, out)
	}
	return bin, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
