package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end (1 to 16) and %d per-layer (1 to 128) metrics", len(endToEnd), len(perLayer))
	}
	for _, m := range endToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %+v: bound outside (0, 0.25], bad unit or bad direction", m)
		}
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", m)
	}
	for _, m := range perLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %+v: bad unit or direction", m)
		}
	}
}

func selfTestConfig(t *testing.T, workload string, trace bool) runConfig {
	dir := t.TempDir()
	return runConfig{workload: workload, seed: 7, seconds: 0.5, trace: trace, scale: 0.1, dir: dir, outDir: dir}
}

// Every workload at a tenth of its size emits exactly the declared
// end-to-end names, none of them zero, with no failed operation.
func TestEndToEndRunsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r, err := runners[w.Name](selfTestConfig(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("attempted %d, failed %d, correct %v; notes %q", r.Attempted, r.Failed, r.Correct, r.Notes)
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("emitted %d metrics, declared %d", len(r.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %+v (present %v), want a positive finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

// The traced run emits exactly the declared ledger and, with one client and
// no timers, repeats every exact count for a seed.
func TestTracedRunsRepeatExactCounts(t *testing.T) {
	for _, name := range []string{"remote_point", "slice_scan", "durable_write", "mixed_read"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var runs [2]*result
			for i := range runs {
				cfg := selfTestConfig(t, name, true)
				r, err := runners[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("attempted %d, failed %d; notes %q", r.Attempted, r.Failed, r.Notes)
				}
				if len(r.Metrics) != len(perLayer) {
					t.Errorf("emitted %d metrics, declared %d", len(r.Metrics), len(perLayer))
				}
				var spans []span
				data, err := os.ReadFile(cfg.outDir + "/trace_" + name + ".json")
				if err == nil {
					err = json.Unmarshal(data, &spans)
				}
				if err != nil || len(spans) == 0 {
					t.Errorf("trace file: %d spans, err %v", len(spans), err)
				}
				runs[i] = r
			}
			for _, m := range perLayer {
				a, ok := runs[0].Metrics[m.Name]
				if !ok {
					t.Errorf("%s not emitted", m.Name)
					continue
				}
				if b := runs[1].Metrics[m.Name]; m.Exact && a.Value != b.Value {
					t.Errorf("%s is declared exact but read %v then %v", m.Name, a.Value, b.Value)
				}
			}
		})
	}
}

func TestSeedSelectsKeySequence(t *testing.T) {
	draw := func(seed int64) []pointOp {
		g := newPointGen(seed, 0, 200)
		ops := make([]pointOp, 64)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	equal := func(a, b []pointOp) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !equal(draw(1), draw(1)) {
		t.Error("the same seed drew two different key sequences")
	}
	if equal(draw(1), draw(2)) {
		t.Error("seeds 1 and 2 drew the same key sequence")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(opsPerS, p50 []float64) *resultFile {
		f := &resultFile{}
		for i := range opsPerS {
			f.Runs = append(f.Runs, &result{Workload: "remote_point", Metrics: map[string]metric{
				"ops_per_s": {opsPerS[i], "1/s"}, "op_ms_p50": {p50[i], "ms"}}})
		}
		return f
	}
	var out bytes.Buffer
	old := file([]float64{1000, 1010, 990, 1005}, []float64{1.0, 1.01, 0.99, 1.0})
	// throughput down a third: regressed; latency spread far beyond the bound: unresolved
	code := compareResults(&out, old, file([]float64{650, 655, 660, 645}, []float64{0.5, 1.5, 1.0, 2.0}))
	if code != 1 {
		t.Errorf("exit code %d, want 1 for a regression", code)
	}
	for _, want := range []string{"regressed", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks a %q row:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareResults(&out, old, old); code != 0 || strings.Contains(out.String(), "regressed") {
		t.Errorf("a file compared with itself: code %d\n%s", code, out.String())
	}
}
