package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of compare.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, metric) row of compare.
type comparison struct {
	Pairs        int
	ParentMedian float64
	ParentQ1     float64
	ParentQ3     float64
	ChangeMedian float64
	ChangeQ1     float64
	ChangeQ3     float64
	Won          float64 // fraction of pairs the change won; ties count for neither
	Verdict      string
}

// absoluteFloor is, per metric, the smallest difference compare treats as
// more than noise, whatever the bound gives as a share of the median.
// setup_s is about a millisecond of process start, where scheduler noise
// alone moves the median by a fifth; a set-up cost below 50 ms is not one a
// user waits for.
var absoluteFloor = map[string]float64{"setup_s": 0.05}

// compareRuns judges one metric over paired runs (parent[i] with
// change[i], alternating which ran first). The tolerance of a side is the
// larger of bound as a share of its median and floor:
//
//   - improved: the change wins at least nine tenths of the pairs and its
//     median is better than the parent's by more than the parent's own
//     spread (the distance between its quartiles);
//   - unresolved: otherwise, when either side's quartile spread exceeds
//     its tolerance — unless every change run reads better than every
//     parent run, which is no worse;
//   - regression: the change's median is worse than the parent's by more
//     than the parent's tolerance;
//   - no worse: anything else.
func compareRuns(parent, change []float64, better string, bound, floor float64) comparison {
	c := comparison{Pairs: min(len(parent), len(change))}
	c.ParentMedian, c.ChangeMedian = median(parent), median(change)
	c.ParentQ1, c.ParentQ3 = quartiles(parent)
	c.ChangeQ1, c.ChangeQ3 = quartiles(change)
	sign := 1.0 // +1: higher is better
	if better == "lower" {
		sign = -1
	}
	won := 0
	for i := 0; i < c.Pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			won++
		}
	}
	if c.Pairs > 0 {
		c.Won = float64(won) / float64(c.Pairs)
	}
	gain := sign * (c.ChangeMedian - c.ParentMedian)
	tolerance := func(med float64) float64 { return math.Max(bound*math.Abs(med), floor) }
	noisy := c.ParentQ3-c.ParentQ1 > tolerance(c.ParentMedian) ||
		c.ChangeQ3-c.ChangeQ1 > tolerance(c.ChangeMedian)
	allBetter := len(parent) > 0 && len(change) > 0
	for _, p := range parent {
		for _, x := range change {
			allBetter = allBetter && sign*(x-p) > 0
		}
	}
	switch {
	case c.Pairs > 0 && c.Won >= 0.9 && gain > c.ParentQ3-c.ParentQ1:
		c.Verdict = verdictImproved
	case noisy && allBetter:
		c.Verdict = verdictNoWorse
	case noisy:
		c.Verdict = verdictUnresolved
	case -gain > tolerance(c.ParentMedian):
		c.Verdict = verdictRegression
	default:
		c.Verdict = verdictNoWorse
	}
	return c
}

// runCompare implements `radioperf compare [-bench FILE] PARENT CHANGE`.
// PARENT and CHANGE are result files, or directories of them, from runs
// alternating between the parent commit and the change; the i-th run of a
// workload on one side pairs with the i-th on the other.
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("radioperf compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "", "BENCHMARK.json to read the bounds from (default: the repository root's)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: radioperf compare [-bench BENCHMARK.json] PARENT CHANGE")
	}
	if *benchPath == "" {
		root, err := findRoot()
		if err != nil {
			return err
		}
		*benchPath = filepath.Join(root, "BENCHMARK.json")
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		return fmt.Errorf("reading bounds: %w", err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("reading bounds from %s: %w", *benchPath, err)
	}
	parent, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-14s %-12s %5s  %-32s %-32s %5s  %s\n",
		"workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, w := range workloads {
		p, c := parent[w], change[w]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		for _, m := range bench.EndToEnd {
			cmp := compareRuns(values(p, m.Name), values(c, m.Name), m.Better, m.Bound, absoluteFloor[m.Name])
			fmt.Fprintf(stdout, "%-14s %-12s %5d  %-32s %-32s %5.2f  %s\n", w, m.Name, cmp.Pairs,
				fmt.Sprintf("%.5g [%.5g, %.5g]", cmp.ParentMedian, cmp.ParentQ1, cmp.ParentQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", cmp.ChangeMedian, cmp.ChangeQ1, cmp.ChangeQ3),
				cmp.Won, cmp.Verdict)
		}
	}
	return nil
}

// values extracts one metric from results in order.
func values(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// loadResults reads result files (a file holding one or more result
// objects, or a directory of *.json files read in name order) and groups
// them by workload, keeping their order.
func loadResults(path string) (map[string][]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("reading results: %w", err)
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	out := map[string][]result{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, fmt.Errorf("reading results: %w", err)
		}
		dec := json.NewDecoder(fh)
		for {
			var r result
			err := dec.Decode(&r)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				fh.Close()
				return nil, fmt.Errorf("reading results from %s: %w", f, err)
			}
			if !contains(workloads, r.Workload) {
				fh.Close()
				return nil, fmt.Errorf("%s: unknown workload %q", f, r.Workload)
			}
			out[r.Workload] = append(out[r.Workload], r)
		}
		fh.Close()
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no results in %s", path)
	}
	return out, nil
}
