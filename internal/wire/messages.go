package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"tcodm/internal/obs"
	"tcodm/internal/value"
)

// --- primitives ------------------------------------------------------------

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadString decodes a length-prefixed string from src, returning the
// string and the bytes consumed.
func ReadString(src []byte) (string, int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return "", 0, fmt.Errorf("wire: corrupt string length")
	}
	end := sz + int(n)
	if n > uint64(len(src)) || end > len(src) || end < sz {
		return "", 0, fmt.Errorf("wire: string truncated (need %d bytes, have %d)", n, len(src)-sz)
	}
	return string(src[sz:end]), end, nil
}

// readCount decodes a uvarint element count and validates it against the
// remaining payload, given a per-element lower bound in bytes. A hostile
// count therefore cannot force an allocation beyond the bytes received.
func readCount(src []byte, minElem int) (int, int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("wire: corrupt count")
	}
	if n > uint64((len(src)-sz)/minElem) {
		return 0, 0, fmt.Errorf("wire: count %d exceeds payload", n)
	}
	return int(n), sz, nil
}

// --- handshake -------------------------------------------------------------

// EncodeHello builds a Hello payload: the client banner.
func EncodeHello(banner string) []byte {
	return AppendString(nil, banner)
}

// DecodeHello parses a Hello payload.
func DecodeHello(p []byte) (banner string, err error) {
	banner, _, err = ReadString(p)
	return banner, err
}

// WelcomeInfo is the Welcome payload: server banner and session id, then
// the server's replication epoch and writability (epoch uvarint, writable
// 0/1 uvarint). A payload that stops after the session id decodes as
// epoch 0, not writable. Clients use the pair to probe a replica set for
// the highest-epoch writable node during failover.
type WelcomeInfo struct {
	Banner   string
	Session  uint64
	Epoch    uint64
	Writable bool
}

// EncodeWelcomeInfo builds a Welcome payload carrying the server's
// replication epoch and writability.
func EncodeWelcomeInfo(info WelcomeInfo) []byte {
	dst := AppendString(nil, info.Banner)
	dst = binary.AppendUvarint(dst, info.Session)
	dst = binary.AppendUvarint(dst, info.Epoch)
	var w uint64
	if info.Writable {
		w = 1
	}
	return binary.AppendUvarint(dst, w)
}

// DecodeWelcomeInfo parses a Welcome payload including the optional
// epoch and writable trailing fields (zero values when absent).
func DecodeWelcomeInfo(p []byte) (WelcomeInfo, error) {
	var info WelcomeInfo
	banner, n, err := ReadString(p)
	if err != nil {
		return info, err
	}
	info.Banner = banner
	p = p[n:]
	session, sz := binary.Uvarint(p)
	if sz <= 0 {
		return info, fmt.Errorf("wire: corrupt session id")
	}
	info.Session = session
	if p = p[sz:]; len(p) > 0 {
		epoch, sz := binary.Uvarint(p)
		if sz <= 0 {
			return info, fmt.Errorf("wire: corrupt welcome epoch")
		}
		info.Epoch = epoch
		if p = p[sz:]; len(p) > 0 {
			w, sz := binary.Uvarint(p)
			if sz <= 0 {
				return info, fmt.Errorf("wire: corrupt welcome writable flag")
			}
			info.Writable = w != 0
		}
	}
	return info, nil
}

// --- queries ---------------------------------------------------------------

// EncodeQueryTrace builds a Query payload: the statement text, then the
// trace id as a trailing uvarint that is omitted when zero (untraced).
func EncodeQueryTrace(text string, trace uint64) []byte {
	dst := AppendString(nil, text)
	if trace > 0 {
		dst = binary.AppendUvarint(dst, trace)
	}
	return dst
}

// DecodeQueryTrace parses a Query payload including the optional trace id
// (0 when absent).
func DecodeQueryTrace(p []byte) (string, uint64, error) {
	text, n, err := ReadString(p)
	if err != nil {
		return "", 0, err
	}
	trace, err := readTrailingTrace(p[n:])
	return text, trace, err
}

// readTrailingTrace decodes the optional trailing trace-id uvarint.
func readTrailingTrace(p []byte) (uint64, error) {
	if len(p) == 0 {
		return 0, nil
	}
	t, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, fmt.Errorf("wire: corrupt trace id")
	}
	return t, nil
}

// EncodeExecTrace builds an Exec payload: statement text, bound parameters
// in record encoding, then the trace id as an optional trailing uvarint
// exactly like EncodeQueryTrace.
func EncodeExecTrace(text string, params []value.V, trace uint64) []byte {
	dst := AppendString(nil, text)
	dst = binary.AppendUvarint(dst, uint64(len(params)))
	for _, v := range params {
		dst = value.AppendRecord(dst, v)
	}
	if trace > 0 {
		dst = binary.AppendUvarint(dst, trace)
	}
	return dst
}

// DecodeExecTrace parses an Exec payload including the optional trace id
// (0 when absent).
func DecodeExecTrace(p []byte) (string, []value.V, uint64, error) {
	text, n, err := ReadString(p)
	if err != nil {
		return "", nil, 0, err
	}
	p = p[n:]
	count, sz, err := readCount(p, 1)
	if err != nil {
		return "", nil, 0, err
	}
	p = p[sz:]
	params := make([]value.V, 0, count)
	for i := 0; i < count; i++ {
		v, used, err := value.DecodeRecord(p)
		if err != nil {
			return "", nil, 0, fmt.Errorf("wire: parameter %d: %w", i+1, err)
		}
		p = p[used:]
		params = append(params, v)
	}
	trace, err := readTrailingTrace(p)
	if err != nil {
		return "", nil, 0, err
	}
	return text, params, trace, nil
}

// EncodeOption builds an Option payload: key and value strings.
func EncodeOption(key, val string) []byte {
	return AppendString(AppendString(nil, key), val)
}

// DecodeOption parses an Option payload.
func DecodeOption(p []byte) (key, val string, err error) {
	key, n, err := ReadString(p)
	if err != nil {
		return "", "", err
	}
	val, _, err = ReadString(p[n:])
	return key, val, err
}

// EncodeAck builds an Ack payload: the effective option value.
func EncodeAck(val string) []byte {
	return AppendString(nil, val)
}

// DecodeAck parses an Ack payload.
func DecodeAck(p []byte) (string, error) {
	val, _, err := ReadString(p)
	return val, err
}

// --- results ---------------------------------------------------------------

// EncodeResultHeader builds a ResultHeader payload: the column names.
func EncodeResultHeader(cols []string) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(cols)))
	for _, c := range cols {
		dst = AppendString(dst, c)
	}
	return dst
}

// DecodeResultHeader parses a ResultHeader payload.
func DecodeResultHeader(p []byte) ([]string, error) {
	count, sz, err := readCount(p, 1)
	if err != nil {
		return nil, err
	}
	p = p[sz:]
	cols := make([]string, 0, count)
	for i := 0; i < count; i++ {
		c, n, err := ReadString(p)
		if err != nil {
			return nil, fmt.Errorf("wire: column %d: %w", i, err)
		}
		p = p[n:]
		cols = append(cols, c)
	}
	return cols, nil
}

// EncodeResultRows builds a ResultRows payload: one batch of rows, each a
// count-prefixed sequence of record-encoded values.
func EncodeResultRows(rows [][]value.V) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(rows)))
	for _, row := range rows {
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		for _, v := range row {
			dst = value.AppendRecord(dst, v)
		}
	}
	return dst
}

// DecodeResultRows parses a ResultRows payload.
func DecodeResultRows(p []byte) ([][]value.V, error) {
	count, sz, err := readCount(p, 1)
	if err != nil {
		return nil, err
	}
	p = p[sz:]
	rows := make([][]value.V, 0, count)
	for i := 0; i < count; i++ {
		nvals, sz, err := readCount(p, 1)
		if err != nil {
			return nil, fmt.Errorf("wire: row %d: %w", i, err)
		}
		p = p[sz:]
		row := make([]value.V, 0, nvals)
		for j := 0; j < nvals; j++ {
			v, used, err := value.DecodeRecord(p)
			if err != nil {
				return nil, fmt.Errorf("wire: row %d value %d: %w", i, j, err)
			}
			p = p[used:]
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ResultDone summarizes a completed result stream.
type ResultDone struct {
	Plan      string
	Rows      uint64 // total rows streamed
	Molecules uint64 // molecules summarized (SELECT ALL)
	Elapsed   time.Duration

	// Trace is the trace id the query ran under and Res its exact resource
	// totals. Both travel as an optional trailing block (trace id plus the
	// four resource uvarints), omitted when the query was untraced with
	// zero resources.
	Trace uint64
	Res   obs.Resources

	// Watermark is the replication watermark LSN the serving store had
	// applied when the query ran: 0 on a leader (or pre-replication
	// server), the follower's applied LSN on a replica. It travels as one
	// more optional trailing uvarint after the trace block; when present
	// the trace block is always emitted (zeros included) so the field
	// positions stay unambiguous. Older decoders ignore it.
	Watermark uint64

	// Epoch is the serving store's replication epoch (0 before any
	// promotion). One more optional trailing uvarint after Watermark;
	// emitting it forces the trace and watermark fields out (zeros
	// included) to keep positions unambiguous. Clients watch it to
	// notice failovers mid-stream.
	Epoch uint64
}

// EncodeResultDone builds a ResultDone payload.
func EncodeResultDone(d ResultDone) []byte {
	dst := AppendString(nil, d.Plan)
	dst = binary.AppendUvarint(dst, d.Rows)
	dst = binary.AppendUvarint(dst, d.Molecules)
	dst = binary.AppendUvarint(dst, uint64(d.Elapsed.Nanoseconds()))
	if d.Trace != 0 || !d.Res.IsZero() || d.Watermark != 0 || d.Epoch != 0 {
		dst = binary.AppendUvarint(dst, d.Trace)
		dst = binary.AppendUvarint(dst, d.Res.Pages)
		dst = binary.AppendUvarint(dst, d.Res.WALBytes)
		dst = binary.AppendUvarint(dst, d.Res.ChainSteps)
		dst = binary.AppendUvarint(dst, d.Res.Atoms)
	}
	if d.Watermark != 0 || d.Epoch != 0 {
		dst = binary.AppendUvarint(dst, d.Watermark)
	}
	if d.Epoch != 0 {
		dst = binary.AppendUvarint(dst, d.Epoch)
	}
	return dst
}

// DecodeResultDone parses a ResultDone payload.
func DecodeResultDone(p []byte) (ResultDone, error) {
	var d ResultDone
	plan, n, err := ReadString(p)
	if err != nil {
		return d, err
	}
	d.Plan = plan
	p = p[n:]
	for _, field := range []*uint64{&d.Rows, &d.Molecules} {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return d, fmt.Errorf("wire: corrupt result summary")
		}
		*field = v
		p = p[sz:]
	}
	ns, sz := binary.Uvarint(p)
	if sz <= 0 {
		return d, fmt.Errorf("wire: corrupt result summary")
	}
	d.Elapsed = time.Duration(ns)
	if p = p[sz:]; len(p) > 0 {
		// The trailing trace/resources block is all-or-nothing: five
		// uvarints, present together.
		for _, field := range []*uint64{&d.Trace, &d.Res.Pages, &d.Res.WALBytes, &d.Res.ChainSteps, &d.Res.Atoms} {
			v, sz := binary.Uvarint(p)
			if sz <= 0 {
				return d, fmt.Errorf("wire: corrupt trace block")
			}
			*field = v
			p = p[sz:]
		}
	}
	if len(p) > 0 {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return d, fmt.Errorf("wire: corrupt watermark")
		}
		d.Watermark = v
		p = p[sz:]
	}
	if len(p) > 0 {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return d, fmt.Errorf("wire: corrupt result epoch")
		}
		d.Epoch = v
	}
	return d, nil
}

// --- errors ----------------------------------------------------------------

// EncodeError builds an Error payload: code, message, and detail.
func EncodeError(code uint16, msg, detail string) []byte {
	return EncodeErrorRetry(code, msg, detail, 0)
}

// EncodeErrorRetry builds an Error payload carrying a retry hint: the
// server suggests the client wait retryAfterMs milliseconds before trying
// again (overload shedding, connection-limit refusals). The hint is an
// optional trailing field, omitted when zero.
func EncodeErrorRetry(code uint16, msg, detail string, retryAfterMs uint32) []byte {
	dst := binary.AppendUvarint(nil, uint64(code))
	dst = AppendString(dst, msg)
	dst = AppendString(dst, detail)
	if retryAfterMs > 0 {
		dst = binary.AppendUvarint(dst, uint64(retryAfterMs))
	}
	return dst
}

// DecodeError parses an Error payload, ignoring any retry hint.
func DecodeError(p []byte) (code uint16, msg, detail string, err error) {
	code, msg, detail, _, err = DecodeErrorRetry(p)
	return code, msg, detail, err
}

// DecodeErrorRetry parses an Error payload including the optional
// RetryAfterMs hint (0 when absent).
func DecodeErrorRetry(p []byte) (code uint16, msg, detail string, retryAfterMs uint32, err error) {
	c, sz := binary.Uvarint(p)
	if sz <= 0 || c > 0xFFFF {
		return 0, "", "", 0, fmt.Errorf("wire: corrupt error code")
	}
	p = p[sz:]
	msg, n, err := ReadString(p)
	if err != nil {
		return 0, "", "", 0, err
	}
	p = p[n:]
	detail, n, err = ReadString(p)
	if err != nil {
		return 0, "", "", 0, err
	}
	if p = p[n:]; len(p) > 0 {
		r, sz := binary.Uvarint(p)
		if sz <= 0 || r > 1<<31 {
			return 0, "", "", 0, fmt.Errorf("wire: corrupt retry hint")
		}
		retryAfterMs = uint32(r)
	}
	return uint16(c), msg, detail, retryAfterMs, nil
}

// --- replication -----------------------------------------------------------
//
// The replication frame family (Subscribe, LogBatch, Watermark, Snapshot*)
// follows the same trailing-field discipline as the rest of the protocol:
// fixed fields decode from the front, unknown trailing bytes are ignored,
// so either end can be upgraded first. LogBatch payloads are a WAL record
// stream (internal/wal.AppendRecordStream) and SnapshotChunk payloads are
// raw store bytes; both are opaque at this layer.

// Subscribe flag bits (the optional third uvarint of a Subscribe payload).
const (
	// SubscribeFlagSnapshot asks the source to start with a full snapshot
	// regardless of log availability — a fenced ex-leader rejoining after
	// divergence, or an operator-forced resync.
	SubscribeFlagSnapshot uint64 = 1 << 0
)

// SubscribeReq is the Subscribe payload: the first LSN the follower still
// needs (its own next LSN after local recovery), then its epoch and flags
// as uvarints. A payload that stops after FromLSN decodes as epoch 0 with
// no flags.
type SubscribeReq struct {
	FromLSN uint64 // first LSN the subscriber still needs
	Epoch   uint64 // highest replication epoch the subscriber has seen
	Flags   uint64 // SubscribeFlag* bits
}

// EncodeSubscribeReq builds a Subscribe payload with epoch and flags.
func EncodeSubscribeReq(req SubscribeReq) []byte {
	dst := binary.AppendUvarint(nil, req.FromLSN)
	dst = binary.AppendUvarint(dst, req.Epoch)
	return binary.AppendUvarint(dst, req.Flags)
}

// DecodeSubscribeReq parses a Subscribe payload including the optional
// epoch and flags (zero when absent).
func DecodeSubscribeReq(p []byte) (SubscribeReq, error) {
	var req SubscribeReq
	lsn, sz := binary.Uvarint(p)
	if sz <= 0 {
		return req, fmt.Errorf("wire: corrupt subscribe LSN")
	}
	req.FromLSN = lsn
	if p = p[sz:]; len(p) > 0 {
		epoch, sz := binary.Uvarint(p)
		if sz <= 0 {
			return req, fmt.Errorf("wire: corrupt subscribe epoch")
		}
		req.Epoch = epoch
		if p = p[sz:]; len(p) > 0 {
			flags, sz := binary.Uvarint(p)
			if sz <= 0 {
				return req, fmt.Errorf("wire: corrupt subscribe flags")
			}
			req.Flags = flags
		}
	}
	return req, nil
}

// StoreDigestLen is the size of a store digest on the wire (SHA-256).
const StoreDigestLen = 32

// WatermarkInfo is the Watermark payload: the leader's highest appended
// LSN and its transaction-time clock at that point, then its epoch as a
// uvarint. Sent after every log batch and as an idle heartbeat, it is what
// lets a follower *know* it is caught up (and how far behind it is when it
// is not). Digest, when present, is the final StoreDigestLen raw bytes —
// the leader's store digest at exactly LSN, shipped on idle heartbeats so
// a follower promoting at that frontier can verify its replayed history
// without a live leader to ask. A payload that stops after the clock
// decodes as epoch 0 with no digest.
type WatermarkInfo struct {
	LSN    uint64
	Clock  uint64
	Epoch  uint64
	Digest []byte // nil or StoreDigestLen bytes
}

// EncodeWatermarkInfo builds a Watermark payload with epoch and an
// optional store digest.
func EncodeWatermarkInfo(wm WatermarkInfo) []byte {
	dst := binary.AppendUvarint(nil, wm.LSN)
	dst = binary.AppendUvarint(dst, wm.Clock)
	dst = binary.AppendUvarint(dst, wm.Epoch)
	if len(wm.Digest) == StoreDigestLen {
		dst = append(dst, wm.Digest...)
	}
	return dst
}

// DecodeWatermarkInfo parses a Watermark payload including the optional
// epoch and digest (zero/nil when absent).
func DecodeWatermarkInfo(p []byte) (WatermarkInfo, error) {
	var wm WatermarkInfo
	lsn, sz := binary.Uvarint(p)
	if sz <= 0 {
		return wm, fmt.Errorf("wire: corrupt watermark LSN")
	}
	wm.LSN = lsn
	p = p[sz:]
	clock, sz := binary.Uvarint(p)
	if sz <= 0 {
		return wm, fmt.Errorf("wire: corrupt watermark clock")
	}
	wm.Clock = clock
	if p = p[sz:]; len(p) > 0 {
		epoch, sz := binary.Uvarint(p)
		if sz <= 0 {
			return wm, fmt.Errorf("wire: corrupt watermark epoch")
		}
		wm.Epoch = epoch
		if p = p[sz:]; len(p) == StoreDigestLen {
			wm.Digest = append([]byte(nil), p...)
		}
	}
	return wm, nil
}

// Fence is a FrameFence payload: the source's view of the current epoch,
// where that epoch began, and a human-readable reason. A subscriber
// whose epoch is higher should self-fence (it is the newer leader's
// peer); one whose history extends past EpochStart at a lower epoch has
// diverged and must rejoin via snapshot.
type Fence struct {
	Epoch      uint64 // the source's current epoch
	EpochStart uint64 // appended LSN at which that epoch began
	Msg        string
}

// EncodeFence builds a Fence payload.
func EncodeFence(f Fence) []byte {
	dst := binary.AppendUvarint(nil, f.Epoch)
	dst = binary.AppendUvarint(dst, f.EpochStart)
	return AppendString(dst, f.Msg)
}

// DecodeFence parses a Fence payload.
func DecodeFence(p []byte) (Fence, error) {
	var f Fence
	epoch, sz := binary.Uvarint(p)
	if sz <= 0 {
		return f, fmt.Errorf("wire: corrupt fence epoch")
	}
	f.Epoch = epoch
	p = p[sz:]
	start, sz := binary.Uvarint(p)
	if sz <= 0 {
		return f, fmt.Errorf("wire: corrupt fence epoch start")
	}
	f.EpochStart = start
	msg, _, err := ReadString(p[sz:])
	if err != nil {
		return f, err
	}
	f.Msg = msg
	return f, nil
}

// --- admin ------------------------------------------------------------------

// EncodeAdmin builds an Admin payload: the operator command.
func EncodeAdmin(cmd string) []byte {
	return AppendString(nil, cmd)
}

// DecodeAdmin parses an Admin payload.
func DecodeAdmin(p []byte) (string, error) {
	cmd, _, err := ReadString(p)
	return cmd, err
}

// EncodeSnapshotOffer builds a SnapshotOffer payload: the LSN log batches
// will resume from once the snapshot is applied, and the snapshot's total
// byte size (chunks follow until SnapshotDone).
func EncodeSnapshotOffer(startLSN, size uint64) []byte {
	dst := binary.AppendUvarint(nil, startLSN)
	return binary.AppendUvarint(dst, size)
}

// DecodeSnapshotOffer parses a SnapshotOffer payload.
func DecodeSnapshotOffer(p []byte) (startLSN, size uint64, err error) {
	startLSN, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("wire: corrupt snapshot start LSN")
	}
	p = p[sz:]
	size, sz = binary.Uvarint(p)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("wire: corrupt snapshot size")
	}
	return startLSN, size, nil
}

// EncodeSnapshotDone builds a SnapshotDone payload: the SHA-256 digest of
// the snapshot bytes, so the follower can verify the transfer before
// trusting the store it is about to open.
func EncodeSnapshotDone(digest []byte) []byte {
	return AppendString(nil, string(digest))
}

// DecodeSnapshotDone parses a SnapshotDone payload.
func DecodeSnapshotDone(p []byte) ([]byte, error) {
	s, _, err := ReadString(p)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}
