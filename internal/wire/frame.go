// Package wire defines the binary protocol the tcodm query service speaks:
// length-prefixed, versioned frames over a byte stream. Every version-2
// frame is
//
//	uint32  length   big-endian; bytes following the prefix = 2 + len(payload) + 4
//	byte    version  protocol version (currently 2)
//	byte    type     frame type
//	[]byte  payload  type-specific encoding
//	uint32  crc      big-endian CRC-32C over version|type|payload
//
// The checksum turns silent byte corruption on the link into a detected
// transport error: a flipped bit anywhere in the framed region fails the
// CRC and the connection is torn down instead of a mangled query or
// result being acted on. Version 2 is the only version written or read: a
// frame carrying any other version byte is rejected as unsupported.
//
// Values travel in the engine's compact record encoding
// (value.AppendRecord); strings and counts are uvarint-length-prefixed.
// Decoding is defensive end to end: malformed lengths, truncated frames,
// and hostile counts error out without panicking and without allocating
// more than the bytes actually received (fuzzed in fuzz_test.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the one protocol version this package writes and reads.
const Version = 2

// MaxPayload bounds a single frame's payload: large results are streamed
// as many bounded row batches, so no legitimate frame approaches this.
const MaxPayload = 8 << 20

// headerLen is the fixed frame overhead past the length prefix.
const headerLen = 2

// crcLen is the version-2 integrity trailer size.
const crcLen = 4

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame types. Client-to-server frames sit below 0x20, server-to-client
// frames at or above it.
const (
	// FrameHello opens a session: client banner string.
	FrameHello byte = 0x01
	// FrameQuery runs a TMQL statement: query text.
	FrameQuery byte = 0x02
	// FrameExec runs parameterized TMQL: text + bound parameter values.
	FrameExec byte = 0x03
	// FrameOption sets one session option: key and value strings.
	FrameOption byte = 0x04
	// FramePing probes liveness; the payload is echoed back in the Pong.
	FramePing byte = 0x05
	// FrameClose announces an orderly client shutdown (empty payload).
	FrameClose byte = 0x06
	// FrameSubscribe asks the server to switch this connection into a
	// replication feed starting at a given LSN (see internal/repl).
	FrameSubscribe byte = 0x07
	// FrameAdmin carries an operator command ("promote", "epoch"); the
	// server answers with Ack (result text) or Error. Servers that expose
	// no admin hook refuse it with CodeQuery, leaving the session usable.
	FrameAdmin byte = 0x08

	// FrameWelcome acknowledges Hello: server banner + session id.
	FrameWelcome byte = 0x20
	// FrameResultHeader starts a result: column names.
	FrameResultHeader byte = 0x21
	// FrameResultRows carries one bounded batch of result rows.
	FrameResultRows byte = 0x22
	// FrameResultDone ends a result: plan, row/molecule totals, elapsed.
	FrameResultDone byte = 0x23
	// FrameError reports a failure: code, message, detail.
	FrameError byte = 0x24
	// FramePong answers a Ping, echoing its payload.
	FramePong byte = 0x25
	// FrameAck acknowledges an Option, echoing the effective value.
	FrameAck byte = 0x26
	// FrameLogBatch carries whole WAL commit groups to a subscriber.
	FrameLogBatch byte = 0x27
	// FrameWatermark reports the leader's appended LSN and clock — sent
	// after each batch and as an idle heartbeat so followers can measure
	// staleness even when no writes are happening.
	FrameWatermark byte = 0x28
	// FrameSnapshotOffer tells a subscriber its requested LSN is gone
	// (checkpoint-truncated) and a full snapshot follows.
	FrameSnapshotOffer byte = 0x29
	// FrameSnapshotChunk carries one bounded run of snapshot bytes.
	FrameSnapshotChunk byte = 0x2A
	// FrameSnapshotDone ends a snapshot; log batches follow from the
	// offer's start LSN.
	FrameSnapshotDone byte = 0x2B
	// FrameFence tells a subscriber it may not be served from its current
	// history: the payload carries the source's epoch and epoch-start LSN
	// so the subscriber can decide between self-fencing (it is the stale
	// one) and a snapshot rejoin (its history diverged).
	FrameFence byte = 0x2C
)

// Error codes carried by FrameError.
const (
	// CodeQuery: the query failed (parse, analysis, or execution); the
	// session remains usable.
	CodeQuery uint16 = 1
	// CodeProtocol: the peer sent a malformed or unexpected frame; the
	// connection is closed.
	CodeProtocol uint16 = 2
	// CodeTimeout: the query exceeded its deadline or was cancelled.
	CodeTimeout uint16 = 3
	// CodeDraining: the server is shutting down and accepts no new work.
	CodeDraining uint16 = 4
	// CodeVersion: the client's protocol version is unsupported.
	CodeVersion uint16 = 5
	// CodeBusy: the server's connection limit is reached; dial again later.
	CodeBusy uint16 = 6
	// CodeStale: a follower cannot satisfy the session's max-staleness
	// bound; retry on the leader or relax the bound.
	CodeStale uint16 = 7
	// CodeReadOnly: the statement writes but this server is a read-only
	// follower; send writes to the leader.
	CodeReadOnly uint16 = 8
	// CodeFenced: the peer's replication epoch is behind (or its history
	// diverged from) this server's; it must not act as — or on behalf
	// of — a leader until it rejoins at the current epoch.
	CodeFenced uint16 = 9
)

// Frame is one decoded protocol frame.
type Frame struct {
	Version byte
	Type    byte
	Payload []byte
}

// ErrFrameTooLarge reports a length prefix beyond MaxPayload.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrChecksum reports a version-2 frame whose CRC trailer does not match
// its content: the bytes were corrupted in transit. The connection is not
// recoverable — the stream position is untrustworthy.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// AppendFrame appends the encoded version-2 frame to dst and returns it.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(headerLen+len(payload)+crcLen))
	dst = append(dst, hdr[:]...)
	body := len(dst)
	dst = append(dst, Version, typ)
	dst = append(dst, payload...)
	var crc [crcLen]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(dst[body:], castagnoli))
	return append(dst, crc[:]...)
}

// FrameLen is the encoded size of a frame carrying payload.
func FrameLen(payload []byte) int { return 4 + headerLen + len(payload) + crcLen }

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, FrameLen(payload)), typ, payload))
	return err
}

// checkBody validates the framed region (version|type|payload|crc) and
// splits out the payload. buf is the n bytes following the length prefix.
func checkBody(buf []byte) (Frame, error) {
	f := Frame{Version: buf[0], Type: buf[1]}
	if f.Version != Version {
		return f, fmt.Errorf("wire: unsupported protocol version %d", f.Version)
	}
	if len(buf) < headerLen+crcLen {
		return f, fmt.Errorf("wire: frame too short for checksum trailer (%d bytes)", len(buf))
	}
	body := buf[:len(buf)-crcLen]
	want := binary.BigEndian.Uint32(buf[len(buf)-crcLen:])
	if crc32.Checksum(body, castagnoli) != want {
		return f, ErrChecksum
	}
	f.Payload = body[headerLen:]
	return f, nil
}

// ReadFrame reads one frame from r. The allocation for the payload is
// bounded by the declared length, which is itself bounded by MaxPayload —
// a hostile length prefix cannot force a large allocation beyond that cap.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < headerLen {
		return Frame{}, fmt.Errorf("wire: frame length %d below header size", n)
	}
	if n > headerLen+MaxPayload+crcLen {
		return Frame{}, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return checkBody(buf)
}

// DecodeFrame decodes one frame from the front of buf, returning the
// frame and the bytes consumed. It is ReadFrame over a byte slice — the
// fuzzing entry point — and never allocates: the payload aliases buf.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, fmt.Errorf("wire: short frame prefix (%d bytes)", len(buf))
	}
	n := binary.BigEndian.Uint32(buf)
	if n < headerLen {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d below header size", n)
	}
	if n > headerLen+MaxPayload+crcLen {
		return Frame{}, 0, ErrFrameTooLarge
	}
	end := 4 + int(n)
	if end > len(buf) {
		return Frame{}, 0, fmt.Errorf("wire: truncated frame (need %d bytes, have %d)", end, len(buf))
	}
	f, err := checkBody(buf[4:end])
	return f, end, err
}
