package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"tcodm/internal/value"
)

// FuzzDecodeFrame throws arbitrary bytes at the full decode stack: frame
// framing first, then every payload decoder against the frame's payload
// regardless of its type byte (a hostile peer can put any payload under
// any type). The invariants: no panic, no allocation beyond the bytes
// received, and well-formed inputs round-trip exactly.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 1})
	f.Add([]byte{0, 0, 0, 2, 99, FramePing})                  // bad version
	f.Add([]byte{0, 0, 0, 200, Version, FrameQuery, 'x'})     // truncated body
	f.Add([]byte{0, 0, 0, 4, 1, FramePing, 'h', 'i'})         // version-1 checksum-free frame: rejected, must not panic
	f.Add([]byte{0, 0, 0, 6, Version, FramePing, 0, 0, 0, 0}) // v2 frame, bad checksum
	f.Add(AppendFrame(nil, FrameQuery, EncodeQueryTrace("SELECT e FROM emp e", 0)))
	f.Add(AppendFrame(nil, FrameExec, EncodeExecTrace("q $1", []value.V{value.Int(1), value.String_("s")}, 0)))
	f.Add(AppendFrame(nil, FrameWelcome, binary.AppendUvarint(AppendString(nil, "srv"), 7)))
	f.Add(AppendFrame(nil, FrameResultHeader, EncodeResultHeader([]string{"a", "b"})))
	f.Add(AppendFrame(nil, FrameResultRows, EncodeResultRows([][]value.V{{value.Float(1.5), value.Null}})))
	f.Add(AppendFrame(nil, FrameResultDone, EncodeResultDone(ResultDone{Plan: "scan", Rows: 2})))
	f.Add(AppendFrame(nil, FrameError, EncodeError(CodeProtocol, "bad", "frame")))
	f.Add(AppendFrame(nil, FrameError, EncodeErrorRetry(CodeBusy, "overloaded", "queue full", 250)))

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < 6 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if len(frame.Payload) > MaxPayload {
			t.Fatalf("payload %d exceeds MaxPayload", len(frame.Payload))
		}
		// The stream reader must agree with the slice decoder.
		sf, serr := ReadFrame(bytes.NewReader(data))
		if serr != nil {
			t.Fatalf("DecodeFrame accepted what ReadFrame rejected: %v", serr)
		}
		if sf.Type != frame.Type || !bytes.Equal(sf.Payload, frame.Payload) {
			t.Fatal("DecodeFrame and ReadFrame disagree")
		}

		p := frame.Payload
		// Every payload decoder must tolerate every payload: error, never
		// panic. When one succeeds, encode→decode of the result must be
		// lossless (the input bytes themselves need not be canonical —
		// uvarint tolerates non-minimal encodings).
		if text, trace, err := DecodeQueryTrace(p); err == nil {
			if got, tr2, err2 := DecodeQueryTrace(EncodeQueryTrace(text, trace)); err2 != nil || got != text || tr2 != trace {
				t.Fatalf("query round-trip: %q -> %q, %v", text, got, err2)
			}
		}
		if text, params, trace, err := DecodeExecTrace(p); err == nil {
			t2, p2, tr2, err2 := DecodeExecTrace(EncodeExecTrace(text, params, trace))
			if err2 != nil || t2 != text || tr2 != trace || len(p2) != len(params) {
				t.Fatalf("exec round-trip: %v", err2)
			}
			for i := range params {
				if p2[i] != params[i] {
					t.Fatalf("exec param %d changed in round trip", i)
				}
			}
		}
		if w, err := DecodeWelcomeInfo(p); err == nil {
			if w2, err2 := DecodeWelcomeInfo(EncodeWelcomeInfo(w)); err2 != nil || w2 != w {
				t.Fatalf("welcome round-trip: %+v -> %+v, %v", w, w2, err2)
			}
		}
		if cols, err := DecodeResultHeader(p); err == nil && len(cols) > len(p) {
			t.Fatalf("decoded %d columns from %d payload bytes", len(cols), len(p))
		}
		if rows, err := DecodeResultRows(p); err == nil && len(rows) > len(p) {
			t.Fatalf("decoded %d rows from %d payload bytes", len(rows), len(p))
		}
		if _, err := DecodeResultDone(p); err == nil {
			// fine
		}
		if code, msg, detail, err := DecodeError(p); err == nil {
			// The hint-blind and retry-aware decoders must agree on the shared
			// fields, and a decoded hint must round-trip.
			c2, m2, d2, retry, err2 := DecodeErrorRetry(p)
			if err2 == nil && (c2 != code || m2 != msg || d2 != detail) {
				t.Fatalf("DecodeError and DecodeErrorRetry disagree on %q", p)
			}
			if err2 == nil {
				rc, rm, rd, rr, rerr := DecodeErrorRetry(EncodeErrorRetry(c2, m2, d2, retry))
				if rerr != nil || rc != c2 || rm != m2 || rd != d2 || rr != retry {
					t.Fatalf("error retry round-trip changed: %v", rerr)
				}
			}
		}
		if _, _, err := DecodeOption(p); err == nil {
			// fine
		}
	})
}
