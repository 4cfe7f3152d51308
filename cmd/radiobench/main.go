// Command radiobench regenerates the reproduction experiments E1–E17 of
// DESIGN.md and prints their tables (optionally also as CSV files and as a
// machine-readable BENCH_<id>.json record).
//
// Usage:
//
//	radiobench                 # run everything at full scale, all cores
//	radiobench -only E4,E6     # a subset
//	radiobench -quick          # reduced sizes (seconds instead of minutes)
//	radiobench -parallel 1     # sequential (bit-identical to any -parallel)
//	radiobench -csv out/       # additionally write one CSV per table
//	radiobench -json out/      # additionally write out/BENCH_<runid>.json
//	radiobench -verify         # assert the paper's qualitative claims
//	radiobench -cpuprofile cpu.pprof        # capture a CPU profile
//	radiobench -memprofile mem.pprof        # heap profile at exit
//	radiobench -goroutineprofile grt.pprof  # goroutine dump at exit
//
// The experiment engine derives every random stream from (seed, point/trial
// index), so the tables — and the deterministic portion of the JSON — are
// bit-identical for every -parallel value; workers only change wall time.
// The JSON record embeds a run manifest (toolchain, host shape, VCS
// revision, effective flags) and, per experiment, the aggregated engine
// counters plus per-trial wall-time statistics; benchjson.Canonical keeps
// the counters (deterministic) and strips everything timing- or
// environment-shaped. cmd/benchdiff compares the canonical projections of
// two records byte for byte.
//
// SIGINT cancels the run between measurement points: completed tables are
// still written, and the JSON record is emitted with "interrupted": true.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"adhocradio"
	"adhocradio/internal/experiment"
	"adhocradio/internal/experiment/benchjson"
	"adhocradio/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radiobench:", err)
		os.Exit(1)
	}
}

// options carries the resolved flag values; run parses them from the
// command line, tests drive runWith directly.
type options struct {
	only             string
	quick            bool
	trials           int
	seed             uint64
	parallel         int
	csvDir           string
	jsonDir          string
	runID            string
	verify           bool
	cpuProfile       string
	memProfile       string
	goroutineProfile string
}

// flagMap renders the resolved options for the run manifest.
func (o options) flagMap() map[string]string {
	m := map[string]string{
		"quick":    strconv.FormatBool(o.quick),
		"seed":     strconv.FormatUint(o.seed, 10),
		"trials":   strconv.Itoa(o.trials),
		"parallel": strconv.Itoa(o.parallel),
		"verify":   strconv.FormatBool(o.verify),
	}
	if o.only != "" {
		m["only"] = o.only
	}
	if o.runID != "" {
		m["runid"] = o.runID
	}
	return m
}

func run() error {
	var o options
	flag.StringVar(&o.only, "only", "", "comma-separated experiment ids (default: all)")
	flag.BoolVar(&o.quick, "quick", false, "reduced problem sizes")
	flag.IntVar(&o.trials, "trials", 0, "trials per randomized point (0 = per-experiment default)")
	flag.Uint64Var(&o.seed, "seed", 1, "master seed")
	flag.IntVar(&o.parallel, "parallel", 0, "worker goroutines for independent points/trials (0 = all cores, 1 = sequential; output is identical either way)")
	flag.StringVar(&o.csvDir, "csv", "", "directory to write per-table CSV files (created if missing)")
	flag.StringVar(&o.jsonDir, "json", "", "directory to write the BENCH_<runid>.json record (created if missing)")
	flag.StringVar(&o.runID, "runid", "", "run identifier for the JSON file name (default: <quick|full>_seed<seed>)")
	flag.BoolVar(&o.verify, "verify", false, "assert the paper's qualitative claims on each table (scale-sensitive checks are skipped under -quick)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&o.goroutineProfile, "goroutineprofile", "", "write a goroutine profile to this file at exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return runWith(ctx, o, os.Stdout)
}

// runWith executes the experiment sweep. A cancelled ctx (SIGINT in normal
// operation) stops the run between measurement points: completed tables are
// still rendered and written, the JSON record carries "interrupted": true,
// and the returned error is non-nil so the process exits non-zero. Profiles
// are flushed before any exit path so an interrupted or shape-failed run
// still yields usable captures.
func runWith(ctx context.Context, o options, stdout io.Writer) error {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memProfile != "" || o.goroutineProfile != "" {
		defer func() {
			if o.memProfile != "" {
				runtime.GC() // settle the heap so the profile reflects live data
				if err := writeProfile("heap", o.memProfile); err != nil {
					fmt.Fprintln(os.Stderr, "radiobench:", err)
				}
			}
			if o.goroutineProfile != "" {
				if err := writeProfile("goroutine", o.goroutineProfile); err != nil {
					fmt.Fprintln(os.Stderr, "radiobench:", err)
				}
			}
		}()
	}

	if o.trials < 0 {
		// Config.Trials treats it as 0 (the defaults), but the record
		// would report the negative count it was given.
		return fmt.Errorf("-trials: negative count %d (0 selects the per-experiment defaults)", o.trials)
	}
	want := map[string]bool{}
	if o.only != "" {
		// Validate eagerly: a typo'd experiment ID used to be silently
		// skipped, turning "-only E42" into an empty (and green) run.
		for _, id := range strings.Split(o.only, ",") {
			id = strings.TrimSpace(id)
			if _, err := experiment.ByID(id); errors.Is(err, experiment.ErrUnknownExperiment) {
				return fmt.Errorf("-only: %w", err)
			}
			want[id] = true
		}
	}
	workers := o.parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := adhocradio.ExperimentConfig{Seed: o.seed, Quick: o.quick, Trials: o.trials, Parallel: workers}

	for _, dir := range []string{o.csvDir, o.jsonDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("creating output directory: %w", err)
		}
	}

	id := o.runID
	if id == "" {
		mode := "full"
		if o.quick {
			mode = "quick"
		}
		id = fmt.Sprintf("%s_seed%d", mode, o.seed)
	}

	record := &benchjson.Run{
		Schema:      benchjson.SchemaVersion,
		ID:          id,
		Seed:        o.seed,
		Quick:       o.quick,
		Trials:      o.trials,
		Parallel:    o.parallel,
		Workers:     workers,
		Manifest:    benchjson.NewManifest(o.flagMap()),
		Experiments: []benchjson.Experiment{},
	}

	var (
		failures    []string
		interrupted bool
	)
	totalStart := time.Now()
	totalCPU := cpuTime()
	obs.Default.Take() // start the per-experiment counter windows clean
	for _, e := range adhocradio.Experiments() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		start := time.Now()
		cpu0 := cpuTime()
		tab, err := e.Run(ctx, cfg)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, context.Canceled) {
				interrupted = true
				break
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := tab.Render(stdout); err != nil {
			return err
		}
		je := benchjson.FromTable(tab)
		je.Timing = &benchjson.Timing{
			WallMS: time.Since(start).Milliseconds(),
			CPUMS:  (cpuTime() - cpu0).Milliseconds(),
		}
		// Drain the observability recorder: everything accumulated since the
		// previous drain belongs to this experiment (the sweep is sequential;
		// only trials inside one experiment run concurrently).
		counters, trialHist := obs.Default.Take()
		if !counters.IsZero() {
			je.Counters = &counters
		}
		je.TrialStats = benchjson.TrialStatsFrom(trialHist)
		if o.verify {
			je.ShapeCheck = checkShape(e.ID, tab, o.quick)
			switch {
			case je.ShapeCheck == "pass":
				fmt.Fprintf(stdout, "shape check: the paper's claim holds on this table\n")
			case strings.HasPrefix(je.ShapeCheck, "fail"):
				fmt.Fprintf(stdout, "shape check: FAILED: %s\n", strings.TrimPrefix(je.ShapeCheck, "fail: "))
				failures = append(failures, e.ID)
			case je.ShapeCheck != "":
				fmt.Fprintf(stdout, "shape check: %s\n", je.ShapeCheck)
			}
		}
		fmt.Fprintf(stdout, "(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if o.csvDir != "" {
			if err := writeCSV(filepath.Join(o.csvDir, e.ID+".csv"), tab); err != nil {
				return err
			}
		}
		record.Experiments = append(record.Experiments, je)
	}
	record.Interrupted = interrupted
	record.Timing = &benchjson.Timing{
		WallMS: time.Since(totalStart).Milliseconds(),
		CPUMS:  (cpuTime() - totalCPU).Milliseconds(),
	}

	if o.jsonDir != "" {
		path := filepath.Join(o.jsonDir, benchjson.Filename(id))
		if err := benchjson.WriteFileAtomic(path, record); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d experiments)\n", path, len(record.Experiments))
	}
	if interrupted {
		return fmt.Errorf("interrupted: %d experiment(s) completed before cancellation", len(record.Experiments))
	}
	if len(failures) > 0 {
		return fmt.Errorf("qualitative-claim regression: shape checks failed for %s", strings.Join(failures, ", "))
	}
	return nil
}

// checkShape runs the experiment's qualitative-claim check and reports
// "pass", "fail: <reason>", or a skip marker for checks whose claims only
// hold at full scale.
func checkShape(id string, tab *experiment.Table, quick bool) string {
	check, ok := experiment.ShapeChecks()[id]
	if !ok {
		return ""
	}
	if quick && !experiment.QuickSafe(id) {
		return "skipped: scale-sensitive claim, quick sizes not meaningful"
	}
	if err := check(tab); err != nil {
		return "fail: " + err.Error()
	}
	return "pass"
}

// writeCSV writes one table, returning (not panicking on) path errors.
func writeCSV(path string, tab *experiment.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing csv: %w", err)
	}
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("writing csv %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing csv %s: %w", path, err)
	}
	return nil
}

// writeProfile dumps the named runtime/pprof profile to path.
func writeProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("writing %s profile: unknown profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing %s profile: %w", name, err)
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("writing %s profile %s: %w", name, path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s profile %s: %w", name, path, err)
	}
	return nil
}
