// Command tcotorture runs the crash-recovery torture harness: a scripted
// workload is cut off at points spread across its whole I/O trace — with
// and without torn writes, through write-through and page-cache device
// models, plus transient sync and read errors — and after every cut the
// database is reopened and checked against an oracle of acknowledged
// commits. A second matrix cuts the archive tiering run the same way. Every
// scenario is deterministic — a failure replays bit-for-bit from the
// printed seed — and runs under a watchdog, so a hang or a panic is one
// violation, not a stalled run.
//
//	tcotorture                      # all strategies, default seed and cuts
//	tcotorture -strategy separated  # one strategy
//	tcotorture -seed 7 -cuts 20     # denser cut schedule, different workload
package main

import (
	"flag"
	"fmt"
	"os"

	"tcodm/internal/atom"
	"tcodm/internal/fault"
)

func main() {
	seed := flag.Int64("seed", 20260806, "workload and schedule seed (printed; failures replay from it)")
	cuts := flag.Int("cuts", 14, "cut points per script variant")
	strategy := flag.String("strategy", "", "run only this storage strategy (embedded, separated, tuple)")
	verbose := flag.Bool("v", false, "log each scenario's outcome")
	flag.Parse()

	if *cuts < 1 {
		fmt.Fprintf(os.Stderr, "tcotorture: -cuts must be at least 1 (got %d)\n", *cuts)
		os.Exit(2)
	}
	strategies := []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple}
	if *strategy != "" {
		s, ok := atom.ParseStrategy(*strategy)
		if !ok {
			fmt.Fprintf(os.Stderr, "tcotorture: unknown strategy %q\n", *strategy)
			os.Exit(2)
		}
		strategies = []atom.Strategy{s}
	}
	logf := func(format string, args ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	// The workload matrix cuts a scripted workload; the archive matrix cuts
	// the tiering cut-over, with torn WAL and archive tails.
	families := []struct {
		label  string // inserted before "scenarios"
		run    func(fault.Config) (*fault.Result, error)
		replay bool // print the recovery replay totals
	}{
		{"", fault.Run, true},
		{"archive ", fault.RunArchive, false},
	}

	fmt.Printf("torture seed %d, %d cut points per variant\n", *seed, *cuts)
	failed := false
	total := 0
	for _, strat := range strategies {
		for _, fam := range families {
			dir, err := os.MkdirTemp("", "tcotorture")
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcotorture: %v\n", err)
				os.Exit(1)
			}
			res, err := fam.run(fault.Config{Strategy: strat, Seed: *seed, Cuts: *cuts, Dir: dir, Logf: logf})
			os.RemoveAll(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcotorture: %s: %v\n", strat, err)
				os.Exit(1)
			}
			total += res.Scenarios
			fmt.Printf("%-10s %4d %sscenarios: %d recovered, %d refused, %d clean, %d violations\n",
				strat, res.Scenarios, fam.label, res.Recovered, res.Refused, res.Clean, len(res.Violations))
			if fam.replay {
				fmt.Printf("%-10s recovery replay: %d records read, %d committed, %d redo ops applied, %d torn bytes truncated\n",
					"", res.Replay.Records, res.Replay.Committed, res.Replay.Replayed, res.Replay.TornBytes)
			}
			for _, v := range res.Violations {
				failed = true
				fmt.Printf("  VIOLATION: %s\n", v)
			}
		}
	}
	fmt.Printf("total: %d scenarios\n", total)
	if failed {
		fmt.Printf("FAIL (replay with -seed %d)\n", *seed)
		os.Exit(1)
	}
	fmt.Println("ok")
}
