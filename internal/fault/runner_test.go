package fault

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tcodm/internal/atom"
)

// TestDriveGuardsEveryScenario: a scenario that panics and one that blocks
// past the watchdog each become exactly one violation with the error
// verdict, and the scenarios after them still run.
func TestDriveGuardsEveryScenario(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ran := map[string]bool{}
	ok := func(name string) Scenario {
		return Scenario{Name: name, Run: func() Outcome {
			ran[name] = true
			return Outcome{Verdict: outcomeClean}
		}}
	}
	scs := []Scenario{
		ok("first"),
		{Name: "panics", Run: func() Outcome { panic("boom") }},
		ok("after-panic"),
		{Name: "hangs", Run: func() Outcome { <-release; return Outcome{Verdict: outcomeClean} }},
		ok("after-hang"),
	}
	var lines []string
	outs := Drive(scs, 50*time.Millisecond, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	if len(outs) != len(scs) || len(lines) != len(scs) {
		t.Fatalf("%d outcomes and %d log lines for %d scenarios", len(outs), len(lines), len(scs))
	}
	for i, sc := range scs {
		out := outs[i]
		switch sc.Name {
		case "panics", "hangs":
			if out.Verdict != VerdictError || len(out.Violations) != 1 {
				t.Errorf("%s: verdict %q, violations %v; want one violation with verdict %q",
					sc.Name, out.Verdict, out.Violations, VerdictError)
			}
			want := map[string]string{"panics": "panic: boom", "hangs": "hang: "}[sc.Name]
			if len(out.Violations) > 0 && !strings.HasPrefix(out.Violations[0], want) {
				t.Errorf("%s: violation %q, want prefix %q", sc.Name, out.Violations[0], want)
			}
			if want := sc.Name + ": error, 1 violation(s): "; !strings.HasPrefix(lines[i], want) {
				t.Errorf("log line %q, want prefix %q", lines[i], want)
			}
		default:
			if !ran[sc.Name] || out.Verdict != outcomeClean || len(out.Violations) != 0 {
				t.Errorf("%s: ran %v, verdict %q, violations %v", sc.Name, ran[sc.Name], out.Verdict, out.Violations)
			}
			if lines[i] != sc.Name+": clean" {
				t.Errorf("log line %q", lines[i])
			}
		}
	}
}

// TestCrashFamilyPanicIsOneViolation runs the workload family with a store
// builder that panics for every tear variant: each panic is one violation
// named after its scenario, and every other scenario still runs and
// recovers.
func TestCrashFamilyPanicIsOneViolation(t *testing.T) {
	fam := *workloadFamily
	fam.start = func(cfg Config, path string) (trial, error) {
		if strings.Contains(path, "tear@") {
			panic("injected")
		}
		return workloadFamily.start(cfg, path)
	}
	const cuts = 2
	res, err := runFamily(&fam, Config{Strategy: atom.StrategyEmbedded, Seed: 1, Cuts: cuts, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tears := 2 * cuts // tear and buftear at every cut point
	want := 1 + cuts*len(fam.variants) + len(fam.syncErrAt) + len(fam.readErrAt)
	if res.Scenarios != want {
		t.Errorf("%d scenarios ran, want %d", res.Scenarios, want)
	}
	if got := res.Recovered + res.Refused + res.Clean; got != want-tears {
		t.Errorf("%d scenarios finished, want %d", got, want-tears)
	}
	if len(res.Violations) != tears {
		t.Fatalf("violations %v, want %d", res.Violations, tears)
	}
	for _, v := range res.Violations {
		if !strings.Contains(v, "tear@") || !strings.HasSuffix(v, ": panic: injected") {
			t.Errorf("violation %q, want a tear scenario's panic", v)
		}
	}
}
