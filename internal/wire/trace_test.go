package wire

import (
	"testing"
	"time"

	"tcodm/internal/obs"
	"tcodm/internal/value"
)

// TestQueryTraceRoundTrip: the trace id survives encode/decode on both
// query-class frames, and a zero id is omitted entirely (the payload is
// byte-identical to the untraced encoding).
func TestQueryTraceRoundTrip(t *testing.T) {
	text, trace, err := DecodeQueryTrace(EncodeQueryTrace("SELECT ALL FROM Design", 0xDEADBEEF))
	if err != nil || text != "SELECT ALL FROM Design" || trace != 0xDEADBEEF {
		t.Fatalf("query: %q trace=%d, %v", text, trace, err)
	}

	if got, want := EncodeQueryTrace("q", 0), AppendString(nil, "q"); string(got) != string(want) {
		t.Fatalf("trace=0 must encode identically to the untraced payload: %x vs %x", got, want)
	}

	params := []value.V{value.Int(7), value.String_("x")}
	etext, eparams, etrace, err := DecodeExecTrace(EncodeExecTrace("SELECT $1", params, 99))
	if err != nil || etext != "SELECT $1" || etrace != 99 || len(eparams) != 2 {
		t.Fatalf("exec: %q trace=%d params=%d, %v", etext, etrace, len(eparams), err)
	}
}

// TestUntracedPayloadsDecodeAsTraceZero: a payload with no trailing trace
// id — what a zero id encodes to — decodes as trace 0.
func TestUntracedPayloadsDecodeAsTraceZero(t *testing.T) {
	text, trace, err := DecodeQueryTrace(EncodeQueryTrace("SELECT 2", 0))
	if err != nil || text != "SELECT 2" || trace != 0 {
		t.Fatalf("DecodeQueryTrace on untraced payload: %q trace=%d, %v", text, trace, err)
	}
	params := []value.V{value.Bool(true)}
	etext, eparams, etrace, err := DecodeExecTrace(EncodeExecTrace("q2", params, 0))
	if err != nil || etext != "q2" || etrace != 0 || len(eparams) != 1 {
		t.Fatalf("DecodeExecTrace on untraced payload: %q trace=%d, %v", etext, etrace, err)
	}
}

// TestResultDoneTraceBlock: the trailing accounting block carries the
// trace id plus all four resource counters, is omitted when everything is
// zero, and errors loudly on truncation instead of silently dropping
// counters.
func TestResultDoneTraceBlock(t *testing.T) {
	done := ResultDone{
		Plan:    "scan",
		Rows:    2,
		Elapsed: 5 * time.Millisecond,
		Trace:   42,
		Res:     obs.Resources{Pages: 10, WALBytes: 128, ChainSteps: 3, Atoms: 7},
	}
	got, err := DecodeResultDone(EncodeResultDone(done))
	if err != nil || got != done {
		t.Fatalf("done round trip: %+v, %v", got, err)
	}

	// Zero trace + zero resources: block omitted, legacy-shaped payload.
	plain := ResultDone{Plan: "p", Rows: 1, Elapsed: time.Millisecond}
	if gp, err := DecodeResultDone(EncodeResultDone(plain)); err != nil || gp != plain {
		t.Fatalf("plain done: %+v, %v", gp, err)
	}

	// Resources without a trace id still travel (accounting is useful even
	// for untraced queries).
	resOnly := ResultDone{Plan: "p", Res: obs.Resources{Atoms: 1}}
	if gr, err := DecodeResultDone(EncodeResultDone(resOnly)); err != nil || gr != resOnly {
		t.Fatalf("res-only done: %+v, %v", gr, err)
	}

	// Truncating the block mid-way must error: the block is all-or-nothing.
	enc := EncodeResultDone(done)
	for cut := 1; cut < 4; cut++ {
		if _, err := DecodeResultDone(enc[:len(enc)-cut]); err == nil {
			t.Fatalf("expected error for block truncated by %d bytes", cut)
		}
	}
}

// TestTrailingTraceCorruption: a malformed trailing uvarint is a protocol
// error, not a silent zero.
func TestTrailingTraceCorruption(t *testing.T) {
	p := EncodeQueryTrace("q", 0)
	p = append(p, 0x80) // unterminated uvarint
	if _, _, err := DecodeQueryTrace(p); err == nil {
		t.Fatal("expected error for corrupt trailing trace id")
	}
}
