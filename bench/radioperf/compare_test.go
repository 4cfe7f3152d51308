package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 8.5, 11.5, 9.5, 10.5, 10}
	noisyMS := make([]float64, len(noisy))
	for i, v := range noisy {
		noisyMS[i] = v / 1e4 // about a millisecond, spread like noisy
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		bound, floor   float64
		want           string
	}{
		{"same runs", base, base, "lower", 0.05, 0, verdictNoWorse},
		{"20% faster wins every pair", base, scaled(0.8), "lower", 0.05, 0, verdictImproved},
		{"20% slower", base, scaled(1.2), "lower", 0.05, 0, verdictRegression},
		{"3% slower is within the bound", base, scaled(1.03), "lower", 0.05, 0, verdictNoWorse},
		{"higher is better: 20% more", base, scaled(1.2), "higher", 0.05, 0, verdictImproved},
		{"higher is better: 20% less", base, scaled(0.8), "higher", 0.05, 0, verdictRegression},
		{"spread wider than the bound", noisy, scaled(1.02), "lower", 0.05, 0, verdictUnresolved},
		{"wide spread but every change run better", noisy, scaled(0.5), "lower", 0.05, 0, verdictImproved},
		// Wins fewer than 9 pairs in 10: not a gain, and within the bound.
		{"small mixed change", base, []float64{9.9, 10.0, 9.8, 10.1, 9.9, 9.9, 10.2, 9.8, 9.9, 10.0}, "lower", 0.05, 0, verdictNoWorse},
		// Millisecond set-up times: a fifth of noise is far inside a
		// 50 ms floor, and only a change past the floor is a regression.
		{"noisy milliseconds within the floor", noisyMS, scaled(0.0001), "lower", 0.05, 0.05, verdictNoWorse},
		{"noisy milliseconds without a floor", noisyMS, scaled(0.0001), "lower", 0.05, 0, verdictUnresolved},
		{"set-up grown past the floor", noisyMS, scaled(0.01), "lower", 0.05, 0.05, verdictRegression},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compareRuns(tc.parent, tc.change, tc.better, tc.bound, tc.floor)
			if c.Verdict != tc.want {
				t.Errorf("verdict %q, want %q (%+v)", c.Verdict, tc.want, c)
			}
			if c.Pairs != 10 {
				t.Errorf("pairs = %d, want 10", c.Pairs)
			}
		})
	}
	// Every change run better than every parent run, by less than the
	// parent's own spread: no gain claimed, yet resolved as no worse.
	c := compareRuns(noisy, []float64{7.9, 7.9, 7.9, 7.9, 7.9, 7.9, 7.9, 7.9, 7.9, 7.95}, "lower", 0.05, 0)
	if c.Verdict != verdictImproved && c.Verdict != verdictNoWorse {
		t.Errorf("all-better change judged %q", c.Verdict)
	}
	if c.Won != 1 {
		t.Errorf("won = %v, want 1", c.Won)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, walls ...float64) string {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, w := range walls {
			r := result{Workload: "suite", Run: i + 1, Metrics: metrics{"wall_s": {Value: w, Unit: "s"}}}
			if err := writeJSON(filepath.Join(d, "suite-run0"+string(rune('1'+i))+".json"), r); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	parent := write("parent", 20, 20.2, 19.8, 20.1, 19.9)
	change := write("change", 30, 30.2, 29.8, 30.1, 29.9)
	var out bytes.Buffer
	if err := runCompare([]string{"-bench", bench, parent, change}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "suite") || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("compare output lacks the regression row:\n%s", out.String())
	}
	if err := runCompare([]string{"-bench", bench, parent}, &out); err == nil {
		t.Error("compare with one side accepted")
	}
}

func TestParseMetrics(t *testing.T) {
	got, err := parseMetrics("# HELP x\nradiosd_queue_depth 3\n\nradiosd_cache_hits_total 1.5e+03\n")
	if err != nil {
		t.Fatal(err)
	}
	if got["radiosd_queue_depth"] != 3 || got["radiosd_cache_hits_total"] != 1500 || len(got) != 2 {
		t.Errorf("parsed %v", got)
	}
	for _, bad := range []string{
		"radiosd_queue_depth",          // no value
		"radiosd_queue_depth x",        // not a number
		"radiosd_queue_depth 1 2",      // timestamps are not used by radiosd
		`radiosd_queue_depth{a="b"} 1`, // neither are labels
		"a 1\na 2",                     // duplicate sample
	} {
		if _, err := parseMetrics(bad); err == nil {
			t.Errorf("parseMetrics(%q) accepted", bad)
		}
	}
}
