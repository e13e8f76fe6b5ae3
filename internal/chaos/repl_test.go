package chaos

import "testing"

// TestReplScenarios runs the replication fault family directly (the full
// chaos matrix includes it, but this pins each scenario's verdict and
// makes a replication regression name itself).
func TestReplScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("replication scenarios spin real leaders/followers; skipped with -short")
	}
	e := &env{seed: 7}
	for _, sc := range replScenarios(e) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			out := sc.Run()
			if len(out.Violations) > 0 {
				t.Fatalf("verdict %q, violations: %v", out.Verdict, out.Violations)
			}
			if out.Verdict != verdictOK {
				t.Fatalf("verdict = %q, want ok", out.Verdict)
			}
		})
	}
}
