package chaos

import (
	"encoding/json"
	"testing"
	"time"

	"tcodm/internal/value"
	"tcodm/internal/wire"
)

// TestRunSubsetCleanAndDeterministic runs a slice of the chaos matrix
// twice with the same seed: no violations may surface, and the
// deterministic report must be byte-identical across runs. The full
// matrix runs in CI via cmd/tcochaos.
func TestRunSubsetCleanAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos subset is several seconds; skipped with -short")
	}
	run := func() *Report {
		rep, err := Run(Config{Seed: 11, Short: true, MaxScenarios: 24, Watchdog: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a := run()
	if a.Summary.Violations != 0 {
		t.Fatalf("violations: %v", a.Stats.Failures)
	}
	if a.Summary.Total != 24 {
		t.Fatalf("ran %d scenarios, want 24", a.Summary.Total)
	}
	if len(a.Sweep) == 0 {
		t.Fatal("availability sweep missing")
	}
	if p := a.Sweep[0]; p.FaultEvery != 0 || p.Availability != 1.0 {
		t.Fatalf("fault-free sweep point must be fully available, got %+v", p)
	}

	b := run()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same-seed reports differ:\n%s\n%s", aj, bj)
	}
}

// TestReplyLenIgnoresElapsed: two recorded server-to-client streams that
// differ only in a ResultDone's elapsed time have one normalized length,
// that of the stream whose elapsed uvarint is one byte long.
func TestReplyLenIgnoresElapsed(t *testing.T) {
	stream := func(elapsed time.Duration) []byte {
		s := wire.AppendFrame(nil, wire.FrameWelcome, wire.EncodeWelcomeInfo(wire.WelcomeInfo{Banner: "tcochaos"}))
		s = wire.AppendFrame(s, wire.FrameResultHeader, wire.EncodeResultHeader([]string{"name"}))
		s = wire.AppendFrame(s, wire.FrameResultRows, wire.EncodeResultRows([][]value.V{{value.String_("a")}}))
		return wire.AppendFrame(s, wire.FrameResultDone, wire.EncodeResultDone(wire.ResultDone{Plan: "scan", Rows: 1, Elapsed: elapsed}))
	}
	fast, slow := stream(5), stream(3*time.Second)
	if len(fast)+4 != len(slow) {
		t.Fatalf("streams of %d and %d bytes; the elapsed uvarints should be 1 and 5 bytes", len(fast), len(slow))
	}
	if got := replyLen(fast); got != int64(len(fast)) {
		t.Fatalf("a one-byte elapsed time changed the length: %d, want %d", got, len(fast))
	}
	if got := replyLen(slow); got != int64(len(fast)) {
		t.Fatalf("normalized length %d, want %d", got, len(fast))
	}
	// A stream cut mid-frame counts its whole frames normalized, the rest raw.
	if got, want := replyLen(append(slow, 0, 0, 0, 9, 2)), int64(len(fast)+5); got != want {
		t.Fatalf("cut stream: normalized length %d, want %d", got, want)
	}
}
