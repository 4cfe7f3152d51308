package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics (TestBenchmarkJSONMatchesMetrics keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics every workload reports from an untraced run.
// Each is defined for every workload (see README.md for what each means on
// each workload), so one result schema serves all four.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// experimentIDs are the registry's experiments, E1..E17.
var experimentIDs = func() []string {
	ids := make([]string, 17)
	for i := range ids {
		ids[i] = "E" + strconv.Itoa(i+1)
	}
	return ids
}()

// perLayer are the metrics a traced run reports, named <layer>.<metric>. A
// workload that does not exercise a layer reports 0 for its metrics. Their
// direction is informational (they carry no bound): for work counts and
// shares of trial time, less is better.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.build_s", "s", "lower"},
		{"graph.build_s.dense", "s", "lower"},
		{"graph.build_s.sparse", "s", "lower"},
		{"graph.compile_s", "s", "lower"},
		{"graph.arcs", "count", "lower"},
		{"graph.build_ns_per_arc", "ns", "lower"},
		{"graph.build_share", "ratio", "lower"},
		{"radio.run_s.clean", "s", "lower"},
		{"radio.run_s.faulty", "s", "lower"},
		{"radio.run_share", "ratio", "lower"},
		{"radio.steps", "count", "lower"},
		{"radio.ns_per_step.clean", "ns", "lower"},
		{"radio.ns_per_step.faulty", "ns", "lower"},
		{"radio.transmissions", "count", "lower"},
		{"radio.receptions", "count", "lower"},
		{"radio.collisions", "count", "lower"},
		{"radio.silent_steps", "count", "lower"},
		{"radio.censored", "count", "lower"},
		{"fault.events", "count", "lower"},
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"experiment." + id + ".wall_s", "s", "lower"})
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"experiment." + id + ".cpu_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"experiment.cpu_per_wall", "ratio", "higher"},
		metricDef{"experiment.steps", "count", "lower"},
		metricDef{"service.hit_p50_ms", "ms", "lower"},
		metricDef{"service.miss_p99_ms", "ms", "lower"},
		metricDef{"service.cache_hit_ratio", "ratio", "higher"},
		metricDef{"service.jobs_completed", "count", "higher"},
		metricDef{"service.jobs_rejected", "count", "lower"},
		metricDef{"service.lost_responses", "count", "lower"},
		metricDef{"service.queue_depth_max", "count", "lower"},
		metricDef{"service.rss_kb_per_1k_jobs", "KiB", "lower"},
		metricDef{"loadgen.p50_ms_r70", "ms", "lower"},
		metricDef{"loadgen.p99_ms_r70", "ms", "lower"},
		metricDef{"loadgen.p50_ms_r140", "ms", "lower"},
		metricDef{"loadgen.p99_ms_r140", "ms", "lower"},
		metricDef{"loadgen.closed_rps", "1/s", "higher"},
		metricDef{"loadgen.lag_p99_ms", "ms", "lower"},
		metricDef{"loadgen.requests", "count", "higher"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// metric is one measured value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note qualifies the value for a reader, e.g. which percentile of how
	// many samples a tail latency is. The result line omits it.
	Note string `json:"note,omitempty"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// declared indexes endToEnd and perLayer by name.
var declared = func() map[string]metricDef {
	out := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		out[d.Name] = d
	}
	return out
}()

// set records a value under a declared name, taking the unit from its
// declaration.
func (m metrics) set(name string, v float64, note ...string) {
	unit := "?" // an undeclared name is a bug here, caught by the smoke test
	if d, ok := declared[name]; ok {
		unit = d.Unit
	}
	m[name] = metric{Value: v, Unit: unit, Note: strings.Join(note, " ")}
}

// setPercentile records a latency percentile in milliseconds with a note
// stating which percentile of how many samples it is.
func (m metrics) setPercentile(name string, p percentile) {
	m.set(name, p.Value*1e3, fmt.Sprintf("p%.4g of %d", p.P, p.N))
}

// only returns the subset of m named in defs, filling 0 for any absent
// name, with notes dropped: the result line's metrics object.
func (m metrics) only(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		out[d.Name] = metric{Value: v.Value, Unit: d.Unit}
	}
	return out
}

// manifest records where a run was measured.
type manifest struct {
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

func newManifest() manifest {
	m := manifest{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: cpuModel()}
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

// cpuModel reads the first "model name" line of /proc/cpuinfo ("" when the
// file is unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// procStatusKB returns a kB-valued field of /proc/<pid>/status, such as
// VmHWM (peak resident set) or VmRSS; pid "self" reads this process.
func procStatusKB(pid, field string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading %s of process %s: %w", field, pid, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// cleanHeap collects the heap, returns freed memory to the OS and resets
// this process's peak-RSS mark (VmHWM), so a measurement that follows
// starts from the same memory state whatever ran before it.
func cleanHeap() error {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS mark: %w", err)
	}
	return nil
}

// clockTicks is the unit of the utime/stime fields of /proc/<pid>/stat
// (USER_HZ, 100 on every Linux platform Go supports).
const clockTicks = 100

// procCPUSeconds returns the user plus system CPU time consumed so far by
// process pid, from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, fmt.Errorf("reading cpu time of process %d: %w", pid, err)
	}
	// The command name (field 2) may hold spaces; fields count from after
	// its closing parenthesis, where field 3 (state) is index 0.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTicks, nil
}
