package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// childArg is the hidden first argument that makes radioperf a workload
// child. Each workload runs in a child of its own, so its peak RSS and GC
// state belong to that workload alone.
const childArg = "-child"

// job is what the parent process sends a workload child on its standard
// input: the generated inputs of exactly one workload.
type job struct {
	Workload string `json:"workload"`
	// SetupRuns is how many set-up times the run reports the median of: the
	// parent times the working child's start (radiosd: the child times the
	// daemon's first start), and the working child times SetupRuns-1 more
	// set-ups spread over its run (see setups).
	SetupRuns int `json:"setup_runs,omitempty"`
	// SetupOnly makes the child exit once it is ready: a set-up run.
	SetupOnly bool `json:"setup_only,omitempty"`
	// TracePath, when set, makes the child record spans and write them
	// there as JSON lines.
	TracePath string        `json:"trace_path,omitempty"`
	Suite     *suiteInput   `json:"suite,omitempty"`
	Trials    *trialsInput  `json:"trials,omitempty"`
	Radiosd   *radiosdInput `json:"radiosd,omitempty"`
}

// report is what a workload child sends back as its last output line.
type report struct {
	// Setup holds the set-up times the child measured (for radiosd, every
	// daemon start).
	Setup     []float64 `json:"setup,omitempty"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	// Resent counts operations that succeeded only when sent again after a
	// lost response (radiosd only).
	Resent int64 `json:"resent,omitempty"`
	// Checks lists every correctness check that failed.
	Checks []string `json:"checks,omitempty"`
	// Failures counts failed operations by what the client saw (radiosd:
	// status and body; 0 is a transport error).
	Failures map[string]int `json:"failures,omitempty"`
	Digest   string         `json:"digest,omitempty"`
	// Invalid is set when the measurement itself is suspect (the load
	// generator ran late); the numbers are reported but flagged.
	Invalid string  `json:"invalid,omitempty"`
	Metrics metrics `json:"metrics"`
}

// runChild is the workload child's main: read the job, report ready, run
// the workload, print the report.
func runChild(stdin io.Reader, stdout io.Writer) error {
	var j job
	if err := json.NewDecoder(stdin).Decode(&j); err != nil {
		return fmt.Errorf("reading job: %w", err)
	}
	fmt.Fprintln(stdout, "ready")
	if j.SetupOnly {
		return nil
	}
	var tr *tracer
	if j.TracePath != "" {
		tr = newTracer()
	}
	ctx := context.Background()
	// radiosd times daemon starts instead (see runRadiosd).
	su := &setups{n: max(0, j.SetupRuns-1), run: setupChild(ctx, j)}
	var rep report
	var err error
	switch {
	case j.Suite != nil:
		rep, err = runSuite(ctx, *j.Suite, tr, su)
	case j.Trials != nil:
		rep, err = runTrialsWorkload(ctx, *j.Trials, tr, su)
	case j.Radiosd != nil:
		rep, err = runRadiosd(ctx, *j.Radiosd, tr, su)
	default:
		err = fmt.Errorf("job for %q carries no inputs", j.Workload)
	}
	if err != nil {
		return err
	}
	rep.Setup = su.times
	if tr != nil {
		if err := writeTrace(j.TracePath, tr.spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// cpuSeconds returns the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// childTimeout bounds one workload child, so a hung run fails instead of
// outliving the benchmark's time limit.
const childTimeout = 170 * time.Second

// spawn starts a workload child with GOMAXPROCS set to nproc, sends it j
// and returns once it reported ready, with the time that took.
func spawn(ctx context.Context, j job, nproc int, stderr io.Writer) (*exec.Cmd, *bufio.Scanner, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, 0, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return nil, nil, 0, err
	}
	cmd := exec.CommandContext(ctx, self, childArg)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, fmt.Errorf("starting %s child: %w", j.Workload, err)
	}
	if !sc.Scan() || sc.Text() != "ready" {
		_ = cmd.Wait()
		return nil, nil, 0, fmt.Errorf("%s child did not report ready", j.Workload)
	}
	return cmd, sc, time.Since(t0), nil
}

// runChildJob runs one workload child to completion and returns the time
// it took to get ready and its report.
func runChildJob(ctx context.Context, j job, nproc int, stderr io.Writer) (float64, report, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd, sc, took, err := spawn(ctx, j, nproc, stderr)
	if err != nil {
		return 0, report{}, err
	}
	var last string
	for sc.Scan() {
		last = sc.Text()
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		if ctx.Err() != nil {
			err = errors.Join(err, ctx.Err())
		}
		return 0, report{}, fmt.Errorf("%s child: %w", j.Workload, err)
	}
	if scanErr != nil {
		return 0, report{}, fmt.Errorf("%s child output: %w", j.Workload, scanErr)
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return 0, report{}, fmt.Errorf("%s child report: %w", j.Workload, err)
	}
	return took.Seconds(), rep, nil
}

// setups spreads a workload's set-up runs over its run: a workload of
// units measured units (rounds, experiments, radiosd steps) calls
// before(i, units) ahead of unit i, outside its timed region, and set-up
// run k of n runs ahead of unit k*units/n. The runs then sample the whole
// run, so a stretch in which other work slows the host moves only a few
// of them, and their median hardly at all.
type setups struct {
	n     int
	next  int
	run   func() (time.Duration, error) // one set-up run, timed
	times []float64                     // in seconds
}

func (s *setups) before(unit, units int) error {
	if s == nil {
		return nil
	}
	for ; s.next < s.n && s.next*units/s.n <= unit; s.next++ {
		took, err := s.run()
		if err != nil {
			return err
		}
		s.times = append(s.times, took.Seconds())
	}
	return nil
}

// setupChild returns the set-up run of a workload child: start another
// child given the same job, marked set-up only, and time it to ready as
// the parent timed this one.
func setupChild(ctx context.Context, j job) func() (time.Duration, error) {
	j.SetupOnly = true
	return func() (time.Duration, error) {
		cmd, _, took, err := spawn(ctx, j, runtime.GOMAXPROCS(0), os.Stderr)
		if err != nil {
			return 0, err
		}
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("%s set-up child: %w", j.Workload, err)
		}
		return took, nil
	}
}
