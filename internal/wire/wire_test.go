package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"tcodm/internal/value"
)

func TestFrameRoundTripStream(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if f.Version != Version || f.Type != byte(i+1) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d mismatch: %+v", i, f)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestDecodeFrameConsumed(t *testing.T) {
	buf := AppendFrame(nil, FrameQuery, []byte("abc"))
	buf = AppendFrame(buf, FramePing, nil)
	f, n, err := DecodeFrame(buf)
	if err != nil || f.Type != FrameQuery || string(f.Payload) != "abc" {
		t.Fatalf("first frame: %+v, %v", f, err)
	}
	f, m, err := DecodeFrame(buf[n:])
	if err != nil || f.Type != FramePing || len(f.Payload) != 0 {
		t.Fatalf("second frame: %+v, %v", f, err)
	}
	if n+m != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n+m, len(buf))
	}
}

func TestReadFrameRejectsHostileLengths(t *testing.T) {
	cases := map[string][]byte{
		"below header": {0, 0, 0, 1, Version},
		"oversized":    {0xFF, 0xFF, 0xFF, 0xFF},
		"truncated":    {0, 0, 0, 10, Version, FramePing, 'x'},
	}
	for name, raw := range cases {
		if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Oversized must fail before any payload-sized allocation: feed only
	// the prefix so a (wrong) attempt to read the body would block on EOF
	// rather than allocate.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

func TestReadFrameRejectsBadVersion(t *testing.T) {
	raw := []byte{0, 0, 0, 2, 99, FramePing}
	_, err := ReadFrame(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version error, got %v", err)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	err := WriteFrame(io.Discard, FrameQuery, make([]byte, MaxPayload+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

func TestHelloWelcomeRoundTrip(t *testing.T) {
	banner, err := DecodeHello(EncodeHello("tcoq/1"))
	if err != nil || banner != "tcoq/1" {
		t.Fatalf("hello: %q, %v", banner, err)
	}
	w, err := DecodeWelcomeInfo(EncodeWelcomeInfo(WelcomeInfo{Banner: "tcoserve/1", Session: 42}))
	if err != nil || w.Banner != "tcoserve/1" || w.Session != 42 {
		t.Fatalf("welcome: %+v, %v", w, err)
	}
}

func TestExecRoundTrip(t *testing.T) {
	params := []value.V{
		value.Null,
		value.Bool(true),
		value.Int(-7),
		value.Float(3.5),
		value.String_("O'Brien \"quoted\"\n"),
		value.Instant(12345),
	}
	text, got, _, err := DecodeExecTrace(EncodeExecTrace("SELECT e FROM emp e WHERE e.id = $1", params, 0))
	if err != nil {
		t.Fatal(err)
	}
	if text != "SELECT e FROM emp e WHERE e.id = $1" {
		t.Fatalf("text = %q", text)
	}
	if len(got) != len(params) {
		t.Fatalf("got %d params, want %d", len(got), len(params))
	}
	for i := range params {
		if got[i] != params[i] {
			t.Fatalf("param %d: got %v want %v", i, got[i], params[i])
		}
	}
}

func TestExecRejectsHostileParamCount(t *testing.T) {
	p := AppendString(nil, "q")
	p = binary.AppendUvarint(p, 1<<40) // claims a trillion params
	if _, _, _, err := DecodeExecTrace(p); err == nil {
		t.Fatal("expected error for hostile count")
	}
}

func TestResultFramesRoundTrip(t *testing.T) {
	cols, err := DecodeResultHeader(EncodeResultHeader([]string{"name", "sal"}))
	if err != nil || len(cols) != 2 || cols[0] != "name" || cols[1] != "sal" {
		t.Fatalf("header: %v, %v", cols, err)
	}

	rows := [][]value.V{
		{value.String_("alice"), value.Int(100)},
		{value.String_("bob"), value.Null},
		{}, // empty row survives
	}
	got, err := DecodeResultRows(EncodeResultRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if len(got[i]) != len(rows[i]) {
			t.Fatalf("row %d: got %d values, want %d", i, len(got[i]), len(rows[i]))
		}
		for j := range rows[i] {
			if got[i][j] != rows[i][j] {
				t.Fatalf("row %d value %d: got %v want %v", i, j, got[i][j], rows[i][j])
			}
		}
	}

	done := ResultDone{Plan: "scan emp", Rows: 3, Molecules: 1, Elapsed: 42 * time.Microsecond}
	gd, err := DecodeResultDone(EncodeResultDone(done))
	if err != nil || gd != done {
		t.Fatalf("done: %+v, %v", gd, err)
	}
}

func TestOptionAckErrorRoundTrip(t *testing.T) {
	k, v, err := DecodeOption(EncodeOption("timeout", "5s"))
	if err != nil || k != "timeout" || v != "5s" {
		t.Fatalf("option: %q=%q, %v", k, v, err)
	}
	ack, err := DecodeAck(EncodeAck("5s"))
	if err != nil || ack != "5s" {
		t.Fatalf("ack: %q, %v", ack, err)
	}
	code, msg, detail, err := DecodeError(EncodeError(CodeQuery, "parse error", "line 3"))
	if err != nil || code != CodeQuery || msg != "parse error" || detail != "line 3" {
		t.Fatalf("error frame: %d %q %q, %v", code, msg, detail, err)
	}
}

// TestFrameChecksumDetectsCorruption flips every byte of an encoded frame
// in turn; each single-byte flip must surface as a decode error, never as
// a silently different frame. This is the integrity property the chaos
// harness leans on: corruption on the link becomes a typed transport
// error.
func TestFrameChecksumDetectsCorruption(t *testing.T) {
	frame := AppendFrame(nil, FrameQuery, EncodeQueryTrace("SELECT (name) FROM Emp", 0))
	for i := range frame {
		mut := bytes.Clone(frame)
		mut[i] ^= 0xFF
		if f, _, err := DecodeFrame(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected: %+v", i, f)
		}
		if f, err := ReadFrame(bytes.NewReader(mut)); err == nil {
			t.Fatalf("stream flip at byte %d went undetected: %+v", i, f)
		}
	}
	// A checksum failure is distinguishable from framing noise.
	mut := bytes.Clone(frame)
	mut[len(mut)-1] ^= 0x01
	if _, _, err := DecodeFrame(mut); !errors.Is(err, ErrChecksum) {
		t.Fatalf("expected ErrChecksum, got %v", err)
	}
}

// TestVersion1FrameRejected hand-builds a checksum-free version-1 frame,
// which no peer has emitted since version 2: both readers must refuse it
// by version, not misread its last four payload bytes as a checksum.
func TestVersion1FrameRejected(t *testing.T) {
	payload := EncodeQueryTrace("SELECT (name) FROM Emp", 0)
	var raw []byte
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(2+len(payload)))
	raw = append(raw, hdr[:]...)
	raw = append(raw, 1, FrameQuery)
	raw = append(raw, payload...)

	const want = "unsupported protocol version 1"
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadFrame on a version-1 frame: %v, want %q", err, want)
	}
	if _, _, err := DecodeFrame(raw); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodeFrame on a version-1 frame: %v, want %q", err, want)
	}
}

func TestErrorRetryAfterRoundTrip(t *testing.T) {
	p := EncodeErrorRetry(CodeBusy, "overloaded", "queue full", 250)
	code, msg, detail, retry, err := DecodeErrorRetry(p)
	if err != nil || code != CodeBusy || msg != "overloaded" || detail != "queue full" || retry != 250 {
		t.Fatalf("retry error frame: %d %q %q retry=%d, %v", code, msg, detail, retry, err)
	}
	// The hint-blind decoder reads the same payload and simply ignores the
	// trailing hint.
	code, msg, detail, err = DecodeError(p)
	if err != nil || code != CodeBusy || msg != "overloaded" || detail != "queue full" {
		t.Fatalf("hint-blind view of retry error frame: %d %q %q, %v", code, msg, detail, err)
	}
	// Absent hint decodes as zero, and a zero hint is omitted from the bytes.
	if !bytes.Equal(EncodeErrorRetry(CodeBusy, "m", "d", 0), EncodeError(CodeBusy, "m", "d")) {
		t.Fatal("zero hint changed the payload encoding")
	}
	_, _, _, retry, err = DecodeErrorRetry(EncodeError(CodeBusy, "m", "d"))
	if err != nil || retry != 0 {
		t.Fatalf("absent hint: retry=%d, %v", retry, err)
	}
}

func TestTruncatedPayloadsError(t *testing.T) {
	full := map[string][]byte{
		"welcome": binary.AppendUvarint(AppendString(nil, "srv"), 9), // cut before the optional fields
		"exec":    EncodeExecTrace("q", []value.V{value.Int(1)}, 0),
		"header":  EncodeResultHeader([]string{"a", "b"}),
		"rows":    EncodeResultRows([][]value.V{{value.Int(1)}}),
		"done":    EncodeResultDone(ResultDone{Plan: "p", Rows: 1}),
		"error":   EncodeError(CodeQuery, "m", "d"),
	}
	decode := map[string]func([]byte) error{
		"welcome": func(p []byte) error { _, err := DecodeWelcomeInfo(p); return err },
		"exec":    func(p []byte) error { _, _, _, err := DecodeExecTrace(p); return err },
		"header":  func(p []byte) error { _, err := DecodeResultHeader(p); return err },
		"rows":    func(p []byte) error { _, err := DecodeResultRows(p); return err },
		"done":    func(p []byte) error { _, err := DecodeResultDone(p); return err },
		"error":   func(p []byte) error { _, _, _, err := DecodeError(p); return err },
	}
	for name, payload := range full {
		for cut := 0; cut < len(payload); cut++ {
			if err := decode[name](payload[:cut]); err == nil {
				t.Errorf("%s truncated at %d: expected error", name, cut)
			}
		}
	}
}
