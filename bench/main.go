// Command bench is the repository benchmark: five workloads over the
// temporal complex-object engine, seven end-to-end metrics with regression
// bounds, and a per-layer ledger measured from outside the engine. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir is where everything a run writes goes, relative to the
// checkout root the bench is started from.
const buildDir = ".bench_build"

var runners = map[string]func(runConfig) (*result, error){
	"remote_point":  runRemotePoint,
	"slice_scan":    runSliceScan,
	"durable_write": runDurableWrite,
	"mixed_read":    runMixed,
	"mixed_write":   runMixed,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload (default: all of them)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per end-to-end run")
		trace    = flag.Int("trace", 0, "1 = the traced run (per-layer ledger) instead of the end-to-end run")
		runs     = flag.Int("runs", 1, "repeat each workload this many times, seed rising by one each time")
		out      = flag.String("out", "", "write every run of this invocation, with the host fingerprint, to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
		spec     = flag.Bool("print-spec", false, "print BENCHMARK.json as declared in spec.go and exit")
	)
	flag.Parse()
	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %q\n", flag.Args())
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(*workload); !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}

	var file resultFile
	code := 0
	var last *result
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			cfg := runConfig{workload: name, seed: *seed + int64(i), seconds: *seconds,
				trace: *trace != 0, scale: 1, outDir: buildDir}
			var stalePeak error
			if len(file.Runs) > 0 {
				stalePeak = resetPeakRSS()
			}
			r, err := runOne(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if stalePeak != nil {
				r.notef("peak_rss_mb includes this process's earlier runs: %v", stalePeak)
			}
			printReport(r)
			if !r.Correct {
				code = 1
			}
			file.Runs = append(file.Runs, r)
			last = r
		}
	}
	if *out != "" {
		fp, err := fingerprint()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: fingerprint: %v\n", err)
			return 1
		}
		file.Fingerprint = fp
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
			return 1
		}
	}
	// The driver reads the last line of standard output: one JSON object
	// with exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// runOne gives the run a private scratch directory inside the checkout and
// removes it afterwards, whatever the outcome.
func runOne(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	return runners[cfg.workload](cfg)
}

// printReport prints one run for a human: every metric by name with unit,
// direction and (end to end) regression bound and sample count.
func printReport(r *result) {
	kind := "end-to-end"
	if r.Trace {
		kind = "traced"
	}
	w, _ := findWorkload(r.Workload)
	fmt.Printf("== %s (%s run, seed %d): %s\n", r.Workload, kind, r.Seed, w.Why)
	fmt.Printf("   attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.Trace {
		for _, m := range perLayer {
			exact := ""
			if m.Exact {
				exact = "  (exact for a seed)"
			}
			fmt.Printf("   %-44s %16.6g %-6s %s is better%s\n", m.Name, r.Metrics[m.Name].Value, m.Unit, m.Better, exact)
		}
	} else {
		for _, m := range endToEnd {
			n := ""
			if c, ok := r.Samples[m.Name]; ok {
				n = fmt.Sprintf("  n=%d", c)
			}
			fmt.Printf("   %-28s %16.6g %-6s %s is better, bound %.0f%%%s\n",
				m.Name, r.Metrics[m.Name].Value, m.Unit, m.Better, m.Bound*100, n)
		}
	}
	for _, note := range r.Notes {
		fmt.Printf("   - %s\n", note)
	}
}

// --- result files --------------------------------------------------------------

// hostFingerprint says where a result file was measured; numbers from
// different fingerprints are not comparable.
type hostFingerprint struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SyncUSP50  float64 `json:"device.sync_us_p50"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
}

type resultFile struct {
	Fingerprint hostFingerprint `json:"fingerprint"`
	Runs        []*result       `json:"runs"`
}

// fingerprint is taken only for -out files: it runs git, which looks
// outside the checkout, and the driver's runs must not.
func fingerprint() (hostFingerprint, error) {
	fp := hostFingerprint{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	path := filepath.Join(buildDir, fmt.Sprintf("probe-%d.dev", os.Getpid()))
	defer os.Remove(path)
	var err error
	fp.SyncUSP50, _, err = probeDevice(path)
	return fp, err
}
