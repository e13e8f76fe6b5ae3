// Command tcobench prints the paper-axis evaluation tables catalogued in
// DESIGN.md §4 and EXPERIMENTS.md (history placement: embedded vs
// separated vs tuple). Run with no arguments for every table at default
// scale, or name the ones wanted:
//
//	tcobench                # everything
//	tcobench -scale 2 R-T1  # a bigger R-T1 only
//
// Systems numbers (throughput, latency, recovery, wire and tracing
// overhead, the per-layer ledger) come from `bash bench/run.sh`, not from
// here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tcodm/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs named; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "workload scale factor")
	ncores := fs.String("ncores", "1,2,4", "comma-separated worker counts for the R-T9 parallel-scaling sweep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tcobench:", err)
		return 1
	}
	cores, err := parseCores(*ncores)
	if err != nil {
		return fail(err)
	}
	var ids []string
	known := map[string]bool{}
	for _, e := range experiments.Suite {
		ids = append(ids, e.ID)
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, a := range fs.Args() {
		id := strings.ToUpper(a)
		if !known[id] {
			return fail(fmt.Errorf("unknown experiment %q (valid ids: %s)", a, strings.Join(ids, " ")))
		}
		want[id] = true
	}

	dir, err := os.MkdirTemp("", "tcobench")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	cfg := experiments.Config{Scale: experiments.Scale(*scale), Dir: dir, Cores: cores}
	for _, e := range experiments.Suite {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t, err := e.Run(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Fprintln(stdout, t)
	}
	return 0
}

// parseCores parses the -ncores list, e.g. "1,4" -> [1, 4].
func parseCores(s string) ([]int, error) {
	var cores []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -ncores entry %q (want positive integers, e.g. \"1,4\")", part)
		}
		cores = append(cores, n)
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("-ncores is empty")
	}
	return cores, nil
}
