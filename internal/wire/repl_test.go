package wire

import (
	"bytes"
	"testing"

	"tcodm/internal/obs"
)

func TestReplicationFrameRoundTrip(t *testing.T) {
	p := EncodeSnapshotOffer(77, 1<<20)
	start, size, err := DecodeSnapshotOffer(p)
	if err != nil || start != 77 || size != 1<<20 {
		t.Fatalf("SnapshotOffer round trip = %d, %d, %v", start, size, err)
	}

	digest := bytes.Repeat([]byte{0xAB}, 32)
	p = EncodeSnapshotDone(digest)
	got, err := DecodeSnapshotDone(p)
	if err != nil || !bytes.Equal(got, digest) {
		t.Fatalf("SnapshotDone round trip = %x, %v", got, err)
	}
}

func TestReplicationFramesRejectTruncation(t *testing.T) {
	if _, _, err := DecodeSnapshotOffer(nil); err == nil {
		t.Error("DecodeSnapshotOffer accepted empty payload")
	}
	if _, err := DecodeSnapshotDone([]byte{0xFF}); err == nil {
		t.Error("DecodeSnapshotDone accepted corrupt payload")
	}
}

// TestReplicationFramesIgnoreTrailing checks the trailing-field discipline:
// a future revision may append fields, and today's decoders must not choke.
func TestReplicationFramesIgnoreTrailing(t *testing.T) {
	p := append(EncodeSubscribeReq(SubscribeReq{FromLSN: 42, Epoch: 1}), 0x01, 0x02)
	if req, err := DecodeSubscribeReq(p); err != nil || req.FromLSN != 42 || req.Epoch != 1 {
		t.Fatalf("Subscribe with trailing bytes = %+v, %v", req, err)
	}
	p = append(EncodeWatermarkInfo(WatermarkInfo{LSN: 7, Clock: 8, Epoch: 1}), 0x09)
	if wm, err := DecodeWatermarkInfo(p); err != nil || wm.LSN != 7 || wm.Clock != 8 || wm.Epoch != 1 {
		t.Fatalf("Watermark with trailing bytes = %+v, %v", wm, err)
	}
}

func TestResultDoneWatermark(t *testing.T) {
	// Watermark alone forces the trace block out as zeros, keeping field
	// positions unambiguous.
	d := ResultDone{Plan: "scan", Rows: 3, Elapsed: 5, Watermark: 99}
	got, err := DecodeResultDone(EncodeResultDone(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.Watermark != 99 || got.Trace != 0 || !got.Res.IsZero() {
		t.Fatalf("decoded = %+v", got)
	}

	// Watermark together with a full trace block.
	d = ResultDone{
		Plan: "scan", Rows: 3, Elapsed: 5, Trace: 11,
		Res:       obs.Resources{Pages: 1, WALBytes: 2, ChainSteps: 3, Atoms: 4},
		Watermark: 1234,
	}
	got, err = DecodeResultDone(EncodeResultDone(d))
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("decoded %+v, want %+v", got, d)
	}

	// Absent watermark decodes as zero (old encoder, new decoder).
	d = ResultDone{Plan: "scan", Rows: 1, Trace: 7, Res: obs.Resources{Pages: 2}}
	got, err = DecodeResultDone(EncodeResultDone(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.Watermark != 0 {
		t.Fatalf("watermark fabricated: %+v", got)
	}
}
