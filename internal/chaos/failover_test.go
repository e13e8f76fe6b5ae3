package chaos

import "testing"

// TestFailoverScenarios runs the leader-failover fault family directly,
// so a failover regression names its exact scenario. The full chaos
// matrix (cmd/tcochaos) includes the same family.
func TestFailoverScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("failover scenarios spin real leaders/followers/clients; skipped with -short")
	}
	e := &env{seed: 7}
	scs := failoverScenarios(e)
	if len(scs) < 40 {
		t.Fatalf("failover family has %d scenarios, want >= 40", len(scs))
	}
	for _, sc := range scs {
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
