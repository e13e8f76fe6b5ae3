package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestWelcomeInfoRoundTrip(t *testing.T) {
	in := WelcomeInfo{Banner: "srv/1", Session: 42, Epoch: 7, Writable: true}
	got, err := DecodeWelcomeInfo(EncodeWelcomeInfo(in))
	if err != nil || got != in {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	// A payload that stops after the session id: epoch and writable
	// default to zero values.
	got, err = DecodeWelcomeInfo(binary.AppendUvarint(AppendString(nil, "old"), 9))
	if err != nil || got.Banner != "old" || got.Session != 9 || got.Epoch != 0 || got.Writable {
		t.Fatalf("two-field welcome = %+v, %v", got, err)
	}
}

func TestSubscribeReqRoundTrip(t *testing.T) {
	in := SubscribeReq{FromLSN: 101, Epoch: 3, Flags: SubscribeFlagSnapshot}
	got, err := DecodeSubscribeReq(EncodeSubscribeReq(in))
	if err != nil || got != in {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	// A one-field Subscribe decodes with zero epoch and flags.
	got, err = DecodeSubscribeReq(binary.AppendUvarint(nil, 55))
	if err != nil || got.FromLSN != 55 || got.Epoch != 0 || got.Flags != 0 {
		t.Fatalf("one-field subscribe = %+v, %v", got, err)
	}
	if _, err := DecodeSubscribeReq(nil); err == nil {
		t.Error("DecodeSubscribeReq accepted empty payload")
	}
}

func TestWatermarkInfoRoundTrip(t *testing.T) {
	dig := bytes.Repeat([]byte{0x5A}, StoreDigestLen)
	in := WatermarkInfo{LSN: 99, Clock: 1234, Epoch: 6, Digest: dig}
	got, err := DecodeWatermarkInfo(EncodeWatermarkInfo(in))
	if err != nil || got.LSN != 99 || got.Clock != 1234 || got.Epoch != 6 || !bytes.Equal(got.Digest, dig) {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	// No digest: nothing trailing, digest stays nil.
	in.Digest = nil
	got, err = DecodeWatermarkInfo(EncodeWatermarkInfo(in))
	if err != nil || got.Digest != nil || got.Epoch != 6 {
		t.Fatalf("digestless round trip = %+v, %v", got, err)
	}
	// A wrong-length digest is never emitted and never decoded as one.
	in.Digest = []byte{1, 2, 3}
	got, err = DecodeWatermarkInfo(EncodeWatermarkInfo(in))
	if err != nil || got.Digest != nil {
		t.Fatalf("short digest leaked: %+v, %v", got, err)
	}
	// A two-field watermark decodes with zero epoch, nil digest; cut inside
	// the second field it is an error.
	two := binary.AppendUvarint(binary.AppendUvarint(nil, 7), 8)
	got, err = DecodeWatermarkInfo(two)
	if err != nil || got.LSN != 7 || got.Clock != 8 || got.Epoch != 0 || got.Digest != nil {
		t.Fatalf("two-field watermark = %+v, %v", got, err)
	}
	if _, err := DecodeWatermarkInfo(two[:1]); err == nil {
		t.Error("DecodeWatermarkInfo accepted truncated payload")
	}
}

func TestFenceRoundTrip(t *testing.T) {
	in := Fence{Epoch: 4, EpochStart: 77, Msg: "stale leadership"}
	got, err := DecodeFence(EncodeFence(in))
	if err != nil || got != in {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeFence(nil); err == nil {
		t.Error("DecodeFence accepted empty payload")
	}
	if _, err := DecodeFence(EncodeFence(in)[:2]); err == nil {
		t.Error("DecodeFence accepted truncated payload")
	}
}

func TestAdminRoundTrip(t *testing.T) {
	got, err := DecodeAdmin(EncodeAdmin("promote"))
	if err != nil || got != "promote" {
		t.Fatalf("round trip = %q, %v", got, err)
	}
	if _, err := DecodeAdmin([]byte{0xFF}); err == nil {
		t.Error("DecodeAdmin accepted corrupt payload")
	}
}

func TestResultDoneEpoch(t *testing.T) {
	// Epoch alone forces both the trace block and watermark out as zeros.
	d := ResultDone{Plan: "scan", Rows: 2, Epoch: 5}
	got, err := DecodeResultDone(EncodeResultDone(d))
	if err != nil || got != d {
		t.Fatalf("epoch-only round trip = %+v, %v", got, err)
	}
	// Watermark + epoch together.
	d = ResultDone{Plan: "scan", Rows: 1, Watermark: 88, Epoch: 3}
	got, err = DecodeResultDone(EncodeResultDone(d))
	if err != nil || got != d {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	// Absent epoch (old encoder) decodes as zero.
	d = ResultDone{Plan: "scan", Rows: 1, Watermark: 88}
	got, err = DecodeResultDone(EncodeResultDone(d))
	if err != nil || got.Epoch != 0 || got.Watermark != 88 {
		t.Fatalf("epoch fabricated: %+v, %v", got, err)
	}
}

// FuzzEpochFrame throws arbitrary bytes at every failover-era decoder:
// the epoch-bearing handshake and replication payloads plus the fence and
// admin frames. Invariants: no panic, and whatever decodes re-encodes to
// an identical decode (the input need not be canonical, the value is).
func FuzzEpochFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeWelcomeInfo(WelcomeInfo{Banner: "srv", Session: 1, Epoch: 2, Writable: true}))
	f.Add(EncodeSubscribeReq(SubscribeReq{FromLSN: 10, Epoch: 2, Flags: SubscribeFlagSnapshot}))
	f.Add(EncodeWatermarkInfo(WatermarkInfo{LSN: 5, Clock: 6, Epoch: 7, Digest: bytes.Repeat([]byte{1}, StoreDigestLen)}))
	f.Add(EncodeFence(Fence{Epoch: 3, EpochStart: 44, Msg: "fenced"}))
	f.Add(EncodeAdmin("promote"))
	f.Add(EncodeResultDone(ResultDone{Plan: "scan", Rows: 1, Watermark: 9, Epoch: 4}))

	f.Fuzz(func(t *testing.T, p []byte) {
		if info, err := DecodeWelcomeInfo(p); err == nil {
			got, err2 := DecodeWelcomeInfo(EncodeWelcomeInfo(info))
			if err2 != nil || got != info {
				t.Fatalf("welcome re-decode: %+v vs %+v, %v", got, info, err2)
			}
		}
		if req, err := DecodeSubscribeReq(p); err == nil {
			got, err2 := DecodeSubscribeReq(EncodeSubscribeReq(req))
			if err2 != nil || got != req {
				t.Fatalf("subscribe re-decode: %+v vs %+v, %v", got, req, err2)
			}
		}
		if wm, err := DecodeWatermarkInfo(p); err == nil {
			got, err2 := DecodeWatermarkInfo(EncodeWatermarkInfo(wm))
			if err2 != nil || got.LSN != wm.LSN || got.Clock != wm.Clock ||
				got.Epoch != wm.Epoch || !bytes.Equal(got.Digest, wm.Digest) {
				t.Fatalf("watermark re-decode: %+v vs %+v, %v", got, wm, err2)
			}
			if wm.Digest != nil && len(wm.Digest) != StoreDigestLen {
				t.Fatalf("decoded digest of %d bytes", len(wm.Digest))
			}
		}
		if fc, err := DecodeFence(p); err == nil {
			got, err2 := DecodeFence(EncodeFence(fc))
			if err2 != nil || got != fc {
				t.Fatalf("fence re-decode: %+v vs %+v, %v", got, fc, err2)
			}
		}
		if cmd, err := DecodeAdmin(p); err == nil {
			got, err2 := DecodeAdmin(EncodeAdmin(cmd))
			if err2 != nil || got != cmd {
				t.Fatalf("admin re-decode: %q vs %q, %v", got, cmd, err2)
			}
		}
		if d, err := DecodeResultDone(p); err == nil {
			got, err2 := DecodeResultDone(EncodeResultDone(d))
			if err2 != nil || got != d {
				t.Fatalf("result-done re-decode: %+v vs %+v, %v", got, d, err2)
			}
		}
	})
}
