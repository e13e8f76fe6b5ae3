// Package wal implements the redo-only write-ahead log that makes
// committed transactions durable: heap mutations are buffered per
// transaction, written (with CRC framing) and optionally fsynced at commit,
// replayed idempotently at recovery via page-LSN guards, and truncated at
// checkpoints.
//
// The protocol pairs with the buffer pool's no-steal policy: pages dirtied
// by an uncommitted transaction never reach the device, so the log needs no
// undo information. Aborts are handled above the log by in-memory undo.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"tcodm/internal/obs"
	"tcodm/internal/storage"
)

// Op tags a log record's operation.
type Op uint8

const (
	// opLegacyInsert, opLegacyUpdate and opLegacyDelete are the heap ops of
	// logs written before redo became page-exact. Their records do not say
	// where a payload landed, so recovery refuses them (ErrLegacyLog).
	opLegacyInsert Op = iota + 1
	opLegacyUpdate
	opLegacyDelete
	// OpCommit marks a transaction as committed; only records of
	// committed transactions are replayed.
	OpCommit
	// OpArchiveWrite logs a cold-archive block append: Data carries the
	// block's byte offset (8 bytes little-endian) followed by the exact
	// frame bytes, and RID is NilRID. The offset travels in Data rather
	// than the RID field because RID.Pack only round-trips 16-bit pages —
	// an archive byte offset would be silently truncated.
	OpArchiveWrite
	// OpEpoch logs a replication-epoch bump: Data is the new epoch (8
	// bytes little-endian), RID is NilRID, and the epoch's start LSN is
	// the record's own LSN minus one (the appended frontier at promotion).
	// It travels in its own [OpEpoch, OpCommit] group, so it replicates
	// to followers through the ordinary log stream and survives recovery
	// like any committed write.
	OpEpoch
	// OpHeapInsert, OpHeapUpdate and OpHeapDelete log one page-exact heap
	// change (storage.Change) of the matching kind: RID is the record's
	// home and Data is Change.Encode. Record.Change decodes them.
	OpHeapInsert
	OpHeapUpdate
	OpHeapDelete
)

// ErrLegacyLog refuses a log that holds heap records in the format written
// before redo became page-exact. Such a log belongs to a store that was
// not closed cleanly by the previous version; replaying it here could
// misplace records, so it is never attempted.
var ErrLegacyLog = errors.New("wal: the log holds heap records from a version before page-exact redo; " +
	"open the store once with that version and close it cleanly (a clean close checkpoints and empties the log), then reopen it with this one")

// Record is one decoded log record.
type Record struct {
	LSN  uint64
	Txn  uint64
	Op   Op
	RID  storage.RID
	Data []byte
}

// Options configure a WAL.
type Options struct {
	// SyncOnCommit fsyncs the log at every commit (full durability).
	// When false, commits are durable only at the next checkpoint or
	// explicit sync — the classic group-commit trade-off.
	SyncOnCommit bool

	// ReadOnly opens the log for inspection only: appends, truncations
	// (including torn-tail repair during Replay) and checkpoints fail or
	// are skipped. A read-only WAL never mutates the file, so it is safe
	// on a directory another process is writing.
	ReadOnly bool
}

// File is the byte-level handle a WAL runs on. *os.File implements it; the
// fault package wraps one to inject torn appends and failed syncs, which is
// why the WAL goes through this seam rather than *os.File directly.
type File interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is the write-ahead log over a single file. It implements
// storage.RedoLogger; install it on the heap so mutations are captured.
type WAL struct {
	mu   sync.Mutex
	f    File
	path string
	opts Options

	nextLSN  uint64 // next LSN to assign
	appended uint64 // highest LSN written to the OS file
	durable  uint64 // highest LSN known synced

	txn     uint64   // active transaction (0 = none)
	pending []Record // buffered records of the active transaction
	size    int64    // current file size

	truncations uint64        // checkpoint epoch: bumped whenever the file is truncated to 0
	truncLSN    uint64        // highest LSN removed by the last checkpoint
	notify      chan struct{} // closed when new records reach the file

	met walMetrics
}

// walMetrics holds the log's instrumentation handles (nil = no-op).
// Latency histograms sit only where actual file I/O happens — commit
// appends and fsyncs — never on the per-record buffering path.
type walMetrics struct {
	appends     *obs.Counter   // commit-time append writes
	fsyncs      *obs.Counter   // fsync calls (commit + WAL-rule + checkpoint)
	appendBytes *obs.Counter   // total bytes appended
	appendNS    *obs.Histogram // append write latency
	fsyncNS     *obs.Histogram // fsync latency
	groupSize   *obs.Histogram // records per commit batch (group size)
}

// SetMetrics binds the log's instrumentation to reg under "wal.*" names.
// A nil registry disables instrumentation (the default).
func (w *WAL) SetMetrics(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if reg == nil {
		w.met = walMetrics{}
		return
	}
	w.met = walMetrics{
		appends:     reg.Counter("wal.appends"),
		fsyncs:      reg.Counter("wal.fsyncs"),
		appendBytes: reg.Counter("wal.append_bytes"),
		appendNS:    reg.Histogram("wal.append_ns"),
		fsyncNS:     reg.Histogram("wal.fsync_ns"),
		groupSize:   reg.Histogram("wal.commit_group"),
	}
}

// syncLocked runs one instrumented fsync.
func (w *WAL) syncLocked() error {
	start := time.Time{}
	if w.met.fsyncNS != nil {
		start = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.met.fsyncs.Inc()
	if !start.IsZero() {
		w.met.fsyncNS.Observe(time.Since(start))
	}
	return nil
}

// Open opens (creating if absent) the log file at path. With opts.ReadOnly
// the file is opened without write access and never created — a missing log
// reads as empty (the clean-shutdown state it represents).
func Open(path string, opts Options) (*WAL, error) {
	flags := os.O_RDWR | os.O_CREATE
	if opts.ReadOnly {
		flags = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		if opts.ReadOnly && os.IsNotExist(err) {
			w := OpenFile(emptyFile{}, 0, opts)
			w.path = path
			return w, nil
		}
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat: %w", err)
	}
	w := OpenFile(f, info.Size(), opts)
	w.path = path
	return w, nil
}

// emptyFile backs a read-only WAL whose log file does not exist: all reads
// see an empty log, all mutations fail.
type emptyFile struct{}

func (emptyFile) ReadAt(p []byte, off int64) (int, error) { return 0, io.EOF }
func (emptyFile) WriteAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("wal: log file does not exist (read-only)")
}
func (emptyFile) Sync() error { return nil }
func (emptyFile) Truncate(size int64) error {
	return fmt.Errorf("wal: log file does not exist (read-only)")
}
func (emptyFile) Close() error { return nil }

// OpenFile wraps an already-open log file handle of the given current size.
// It is the injection seam for tests that need to interpose on the log's
// I/O (see internal/fault); regular callers use Open.
func OpenFile(f File, size int64, opts Options) *WAL {
	return &WAL{f: f, opts: opts, nextLSN: 1, size: size}
}

// SetNextLSN moves the LSN counter past LSNs already used (called after
// recovery and when reopening a checkpointed database, so page LSNs on disk
// stay strictly below future LSNs).
func (w *WAL) SetNextLSN(lsn uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn > w.nextLSN {
		w.nextLSN = lsn
	}
	if w.nextLSN-1 > w.appended {
		w.appended = w.nextLSN - 1
		w.durable = w.appended
		// Those LSNs were assigned before this file (or before its last
		// checkpoint), so no cursor can read them back out of it.
		w.truncLSN = w.appended
	}
}

// NextLSN returns the next LSN the log would assign.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Size returns the current log file size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// BeginTxn starts buffering for transaction id (non-zero).
func (w *WAL) BeginTxn(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.txn != 0 {
		return fmt.Errorf("wal: transaction %d already active", w.txn)
	}
	if id == 0 {
		return fmt.Errorf("wal: transaction id must be non-zero")
	}
	w.txn = id
	w.pending = w.pending[:0]
	return nil
}

// LogHeap implements storage.RedoLogger: it buffers c's encoding as one
// heap record at c's home, under the op of c's kind.
func (w *WAL) LogHeap(c *storage.Change) uint64 {
	return w.buffer(OpHeapInsert+Op(c.Kind-storage.ChangeInsert), c.Home, c.Encode())
}

// Change decodes a heap record into the page-exact change it logged.
func (r Record) Change() (*storage.Change, error) {
	if r.Op < OpHeapInsert || r.Op > OpHeapDelete {
		return nil, fmt.Errorf("wal: op %d at LSN %d is not a heap change", r.Op, r.LSN)
	}
	return storage.DecodeChange(storage.ChangeInsert+storage.ChangeKind(r.Op-OpHeapInsert), r.RID, r.Data)
}

// LogArchiveWrite buffers a cold-archive block append: the frame bytes as
// written at the given archive byte offset. Redo rewrites the frame at the
// same offset — idempotent, like heap redo.
func (w *WAL) LogArchiveWrite(off uint64, frame []byte) uint64 {
	data := make([]byte, 8+len(frame))
	binary.LittleEndian.PutUint64(data, off)
	copy(data[8:], frame)
	return w.buffer(OpArchiveWrite, storage.NilRID, data)
}

// buffer queues one record of the active transaction; the log keeps data
// without copying it.
func (w *WAL) buffer(op Op, rid storage.RID, data []byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	w.nextLSN++
	w.pending = append(w.pending, Record{LSN: lsn, Txn: w.txn, Op: op, RID: rid, Data: data})
	return lsn
}

// Commit writes the buffered records plus a commit marker and (optionally)
// syncs. After Commit the transaction's effects survive a crash.
func (w *WAL) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.ReadOnly {
		return fmt.Errorf("wal: commit on read-only log")
	}
	if w.txn == 0 {
		return fmt.Errorf("wal: commit without active transaction")
	}
	commit := Record{LSN: w.nextLSN, Txn: w.txn, Op: OpCommit}
	w.nextLSN++
	records := append(w.pending, commit)
	size := 0
	for _, r := range records {
		size += frameHeaderLen + recordHeaderLen + len(r.Data)
	}
	buf := make([]byte, 0, size)
	for _, r := range records {
		buf = appendRecord(buf, r)
	}
	appendStart := time.Time{}
	if w.met.appendNS != nil {
		appendStart = time.Now()
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if !appendStart.IsZero() {
		w.met.appendNS.Observe(time.Since(appendStart))
	}
	w.met.appends.Inc()
	w.met.appendBytes.Add(uint64(len(buf)))
	w.met.groupSize.Record(uint64(len(records)))
	w.size += int64(len(buf))
	w.appended = commit.LSN
	if w.opts.SyncOnCommit {
		if err := w.syncLocked(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		w.durable = w.appended
	}
	w.txn = 0
	w.pending = w.pending[:0]
	w.wakeLocked()
	return nil
}

// AppendEpochGroup appends a committed [OpEpoch, OpCommit] group carrying
// the given epoch and syncs it to stable storage — a promotion must not
// be forgettable. The group uses its own first LSN as the transaction id;
// the WAL never holds records of uncommitted transactions, so the id
// cannot collide with an uncommitted group during replay. Returns the
// commit LSN (the new appended frontier).
func (w *WAL) AppendEpochGroup(epoch uint64) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.ReadOnly {
		return 0, fmt.Errorf("wal: epoch append on read-only log")
	}
	if w.txn != 0 {
		return 0, fmt.Errorf("wal: epoch append during active transaction %d", w.txn)
	}
	data := binary.LittleEndian.AppendUint64(nil, epoch)
	rec := Record{LSN: w.nextLSN, Txn: w.nextLSN, Op: OpEpoch, RID: storage.NilRID, Data: data}
	commit := Record{LSN: w.nextLSN + 1, Txn: rec.Txn, Op: OpCommit}
	w.nextLSN += 2
	buf := appendRecord(nil, rec)
	buf = appendRecord(buf, commit)
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return 0, fmt.Errorf("wal: epoch append: %w", err)
	}
	w.met.appends.Inc()
	w.met.appendBytes.Add(uint64(len(buf)))
	w.size += int64(len(buf))
	w.appended = commit.LSN
	if err := w.syncLocked(); err != nil {
		return 0, fmt.Errorf("wal: epoch sync: %w", err)
	}
	w.durable = w.appended
	w.wakeLocked()
	return commit.LSN, nil
}

// Abort drops the buffered records of the active transaction.
func (w *WAL) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.txn = 0
	w.pending = w.pending[:0]
}

// EnsureDurable enforces the WAL rule for a page flush: everything logged
// up to lsn must be on stable storage first. LSNs belonging to the active
// uncommitted transaction cannot be made durable — that is a protocol
// violation (the no-steal policy should have prevented the flush).
func (w *WAL) EnsureDurable(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn <= w.durable {
		return nil
	}
	if lsn <= w.appended {
		if err := w.syncLocked(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		w.durable = w.appended
		return nil
	}
	return fmt.Errorf("wal: WAL-rule violation: page LSN %d not yet appended (appended through %d)", lsn, w.appended)
}

// Checkpoint truncates the log. The caller must have flushed and synced all
// dirty pages first; the LSN counter keeps advancing across checkpoints.
func (w *WAL) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.ReadOnly {
		return fmt.Errorf("wal: checkpoint on read-only log")
	}
	if w.txn != 0 {
		return fmt.Errorf("wal: checkpoint during active transaction %d", w.txn)
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := w.syncLocked(); err != nil {
		return fmt.Errorf("wal: sync after truncate: %w", err)
	}
	w.size = 0
	w.durable = w.nextLSN - 1
	w.appended = w.nextLSN - 1
	w.truncations++
	w.truncLSN = w.appended
	return nil
}

// Close releases the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// --- Framing -------------------------------------------------------------

// Frame layout: [payloadLen uint32][crc32(payload) uint32][payload].
// Payload: [lsn uint64][txn uint64][op uint8][rid uint64][dataLen uint32][data].
// The frame is built in place in dst; its checksum is filled in last.
func appendRecord(dst []byte, r Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(recordHeaderLen+len(r.Data)))
	sumAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	payload := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = binary.LittleEndian.AppendUint64(dst, r.Txn)
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, r.RID.Pack())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
	dst = append(dst, r.Data...)
	binary.LittleEndian.PutUint32(dst[sumAt:], crc32.ChecksumIEEE(dst[payload:]))
	return dst
}

// frameHeaderLen is the frame's fixed part: payloadLen and crc; and
// recordHeaderLen the payload's: lsn, txn, op, rid and dataLen.
const (
	frameHeaderLen  = 8
	recordHeaderLen = 29
)

func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < recordHeaderLen {
		return Record{}, fmt.Errorf("wal: short record payload (%d bytes)", len(payload))
	}
	r := Record{
		LSN: binary.LittleEndian.Uint64(payload[0:]),
		Txn: binary.LittleEndian.Uint64(payload[8:]),
		Op:  Op(payload[16]),
		RID: storage.UnpackRID(binary.LittleEndian.Uint64(payload[17:])),
	}
	n := binary.LittleEndian.Uint32(payload[25:])
	if int(n) != len(payload)-recordHeaderLen {
		return Record{}, fmt.Errorf("wal: record data length mismatch: header %d, actual %d", n, len(payload)-recordHeaderLen)
	}
	r.Data = append([]byte(nil), payload[recordHeaderLen:]...)
	return r, nil
}

// ReadAll decodes every complete, checksum-valid record from the log,
// stopping silently at the first torn or corrupt frame (the crash tail).
func (w *WAL) ReadAll() ([]Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	records, _, err := w.readAllLocked()
	return records, err
}

// readAllLocked decodes the intact record prefix and returns it together
// with the byte offset each record ends at.
func (w *WAL) readAllLocked() ([]Record, []int64, error) {
	data := make([]byte, w.size)
	if w.size > 0 {
		n, err := w.f.ReadAt(data, 0)
		if err != nil && err != io.EOF {
			return nil, nil, fmt.Errorf("wal: read: %w", err)
		}
		data = data[:n]
	}
	var out []Record
	var ends []int64
	off := 0
	for off+frameHeaderLen <= len(data) {
		n, payload, ok := frameAt(data, off)
		if !ok {
			break // torn or corrupt tail
		}
		r, err := decodeRecord(payload)
		if err != nil {
			break
		}
		off += n
		out = append(out, r)
		ends = append(ends, int64(off))
	}
	return out, ends, nil
}

// RecoveryStats summarizes a replay.
type RecoveryStats struct {
	Records   int    // records read from the log
	Committed int    // records belonging to committed transactions
	Replayed  int    // redo operations applied (page-LSN guard may no-op them)
	MaxLSN    uint64 // highest LSN seen
	TornBytes int64  // bytes of torn/corrupt tail truncated away

	// Epoch is the highest committed replication epoch replayed (0 when
	// the log holds no OpEpoch records) and EpochStart the appended
	// frontier at which that epoch began. The engine takes the max of
	// these against its checkpointed metadata: a crash between a
	// promotion's log append and its metadata flush must not forget the
	// epoch.
	Epoch      uint64
	EpochStart uint64
}

// Recover readies the log for redo after an unclean shutdown and returns
// its committed records in log order; the caller applies them and counts
// Replayed.
//
// Everything after the last intact commit marker — a torn frame, or a
// group whose commit never landed — is truncated away and the file synced:
// left in place, post-recovery commits would append behind bytes a future
// read stops at (or join a dead group), silently losing them on the next
// crash. The appended and durable frontiers then move to that commit, so a
// page stamped by redo may be evicted mid-replay under any pool size: the
// record it carries is on stable storage.
//
// A read-only log is never truncated; its tail is only ignored. A log
// holding heap records in the pre-page-exact format is refused with
// ErrLegacyLog before anything is returned.
func (w *WAL) Recover() ([]Record, RecoveryStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	records, ends, err := w.readAllLocked()
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	stats := RecoveryStats{Records: len(records)}
	keep, end := 0, int64(0)
	for i, r := range records {
		stats.MaxLSN = max(stats.MaxLSN, r.LSN)
		if r.Op == OpCommit {
			keep, end = i+1, ends[i]
		}
	}
	records = records[:keep]
	for _, r := range records {
		switch r.Op {
		case opLegacyInsert, opLegacyUpdate, opLegacyDelete:
			return nil, RecoveryStats{}, ErrLegacyLog
		case OpCommit:
			continue
		case OpEpoch:
			if len(r.Data) >= 8 {
				if e := binary.LittleEndian.Uint64(r.Data); e > stats.Epoch {
					stats.Epoch, stats.EpochStart = e, r.LSN-1
				}
			}
		}
		stats.Committed++
	}
	stats.TornBytes = w.size
	if n := len(ends); n > 0 {
		stats.TornBytes -= ends[n-1]
	}
	if !w.opts.ReadOnly {
		// A read-only opener must not mutate a file another process may
		// still own; it only ignores the tail.
		if end < w.size {
			if err := w.f.Truncate(end); err != nil {
				return nil, stats, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		if err := w.syncLocked(); err != nil {
			return nil, stats, fmt.Errorf("wal: sync before replay: %w", err)
		}
	}
	w.size = end
	w.nextLSN = max(w.nextLSN, stats.MaxLSN+1)
	if keep > 0 {
		last := records[keep-1].LSN
		w.appended, w.durable = max(w.appended, last), max(w.durable, last)
		// The file still holds these records: cursors may read from the
		// first one onward.
		w.truncLSN = min(w.truncLSN, records[0].LSN-1)
	}
	return records, stats, nil
}
