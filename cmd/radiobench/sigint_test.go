package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"adhocradio/internal/experiment/benchjson"
)

// TestMain turns the test binary into a radiobench child process when
// re-executed with RADIOBENCH_CHILD=1 — the standard helper-process
// pattern, so the SIGINT test below can deliver a real operating-system
// signal to a real process instead of faking cancellation in-process.
func TestMain(m *testing.M) {
	if os.Getenv("RADIOBENCH_CHILD") == "1" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// childMarker is printed by the child right after E2's "finished" line;
// the parent waits for it before signalling.
const childMarker = "E2_DONE_MARKER"

// sigintOpts is the child's workload: E2 and then E5, so a signal that
// arrives after E2 interrupts the run before E5 starts.
func sigintOpts(jsonDir, only string) options {
	return options{only: only, quick: true, seed: 3, parallel: 2, jsonDir: jsonDir, runID: "kr"}
}

// pauseAfterE2 passes the child's output through to w. Once the output
// reports E2 finished, it prints childMarker and blocks until ctx is
// cancelled, so the parent's SIGINT lands between E2 and E5.
type pauseAfterE2 struct {
	ctx context.Context
	w   io.Writer
}

func (p pauseAfterE2) Write(b []byte) (int, error) {
	n, err := p.w.Write(b)
	if bytes.Contains(b, []byte("(E2 finished in")) {
		fmt.Fprintln(p.w, childMarker)
		<-p.ctx.Done()
	}
	return n, err
}

// childMain runs the E2,E5 workload under a signal.NotifyContext.
func childMain() int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	o := sigintOpts(os.Getenv("RADIOBENCH_CHILD_JSON"), "E2,E5")
	if err := runWith(ctx, o, pauseAfterE2{ctx, os.Stdout}); err != nil {
		fmt.Fprintln(os.Stderr, "radiobench:", err)
		return 1
	}
	return 0
}

func readRun(t *testing.T, path string) *benchjson.Run {
	t.Helper()
	r, err := benchjson.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func canonicalBytes(t *testing.T, r *benchjson.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := benchjson.Encode(&buf, r.Canonical()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSIGINTEndToEnd sends a real SIGINT to a radiobench child process
// between two experiments: the child exits non-zero and writes a partial
// record flagged interrupted that holds exactly the completed experiment,
// canonically byte-identical to an uninterrupted run of it alone.
func TestSIGINTEndToEnd(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal delivery")
	}
	if testing.Short() {
		t.Skip("spawns a child process running part of the quick suite")
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"RADIOBENCH_CHILD=1",
		"RADIOBENCH_CHILD_JSON="+dir,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for the E2 marker, then deliver the signal.
	marker := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), childMarker) {
				marker <- nil
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
		select {
		case marker <- fmt.Errorf("child exited without printing the E2 marker"):
		default:
		}
	}()
	select {
	case err := <-marker:
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("timed out waiting for the child's E2 marker")
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("interrupted child exited zero")
	}

	partial := readRun(t, filepath.Join(dir, benchjson.Filename("kr")))
	if !partial.Interrupted {
		t.Fatal("partial record not flagged interrupted")
	}
	if len(partial.Experiments) != 1 || partial.Experiments[0].ID != "E2" {
		t.Fatalf("partial record holds %d experiments, want exactly E2", len(partial.Experiments))
	}

	// Apart from the interruption flag, the partial record is an
	// uninterrupted run of E2 alone (the run id is part of the canonical
	// document, so both use "kr").
	dirRef := t.TempDir()
	if err := runWith(context.Background(), sigintOpts(dirRef, "E2"), io.Discard); err != nil {
		t.Fatal(err)
	}
	ref := readRun(t, filepath.Join(dirRef, benchjson.Filename("kr")))
	partial.Interrupted = false
	if got, want := canonicalBytes(t, partial), canonicalBytes(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("interrupted run's E2 differs from an uninterrupted E2 run:\n%s\nvs\n%s", got, want)
	}
}
