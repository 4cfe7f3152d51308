// Command benchdiff byte-compares the canonical projections (see
// benchjson.Canonical) of two BENCH_*.json records written by radiobench.
// Canonical bytes are the repository's "same outputs" gate: a -parallel 1
// run against a -parallel 0 run, or a change against its parent commit.
//
// Usage:
//
//	benchdiff REF.json NEW.json
//
// Exit status: 0 when the canonical encodings are identical; 1 when they
// differ (the first diverging line is printed) or a record cannot be read;
// 2 on usage errors. benchdiff takes no flags.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"adhocradio/internal/experiment/benchjson"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit for tests.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 || strings.HasPrefix(args[0], "-") || strings.HasPrefix(args[1], "-") {
		fmt.Fprintln(stderr, "usage: benchdiff REF.json NEW.json")
		return 2
	}
	var canon [2][]byte
	for i, path := range args {
		r, err := benchjson.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		var buf bytes.Buffer
		if err := benchjson.Encode(&buf, r.Canonical()); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		canon[i] = buf.Bytes()
	}
	if err := firstDiff(canon[0], canon[1]); err != nil {
		fmt.Fprintf(stderr, "benchdiff: %s vs %s: %v\n", args[0], args[1], err)
		return 1
	}
	fmt.Fprintln(stdout, "canonical documents are byte-identical")
	return 0
}

// firstDiff reports the first line on which two encodings differ, so a CI
// failure is diagnosable from the log alone.
func firstDiff(ref, got []byte) error {
	if bytes.Equal(ref, got) {
		return nil
	}
	rl, gl := bytes.Split(ref, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(rl) && i < len(gl); i++ {
		if !bytes.Equal(rl[i], gl[i]) {
			return fmt.Errorf("canonical documents differ at line %d:\n  ref: %s\n  new: %s", i+1, rl[i], gl[i])
		}
	}
	return fmt.Errorf("canonical documents differ in length (%d vs %d lines)", len(rl), len(gl))
}
