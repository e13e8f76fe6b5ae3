// Package wal implements the redo-only write-ahead log that makes
// committed transactions durable: heap mutations are buffered per
// transaction, appended (with CRC framing) at commit and, with
// SyncOnCommit, made durable by an fsync the commits waiting at that
// moment share, replayed idempotently at recovery via page-LSN guards,
// and truncated at checkpoints.
//
// The protocol pairs with the buffer pool's no-steal policy: pages dirtied
// by an uncommitted transaction never reach the device, so the log needs no
// undo information. Aborts are handled above the log by in-memory undo.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
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

// ErrLogFailed reports that a log sync failed. A failed fsync cannot be
// taken back: the commits it covered are in memory and may or may not be
// on stable storage, and a later fsync could make them durable after all.
// The log therefore fails stop: every later append, commit, WAL-rule
// flush and durability wait returns this error (wrapping the sync's
// cause) until the store is reopened and recovery settles what survived.
var ErrLogFailed = errors.New("wal: log sync failed; reopen the store to recover")

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
	// SyncOnCommit makes every commit durable before WaitDurable returns
	// for it; commits that wait together share one fsync (group commit).
	// When false, commits are durable only at the next checkpoint or
	// WAL-rule flush, and WaitDurable returns at once.
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
//
// Appends and durability are separate steps. Commit appends a group under
// w.mu and returns its LSN; WaitDurable(lsn) then returns once the group
// is on stable storage. The first waiter that finds no sync running runs
// one, outside w.mu, for everything appended before it began; waiters that
// arrive meanwhile sleep on synced and are covered by that sync or the
// next one. With SyncOnCommit the file is kept zero-filled ahead of the
// append point, so a commit's fsync writes data blocks and no size change.
type WAL struct {
	mu   sync.Mutex
	f    File
	path string
	opts Options

	nextLSN    uint64        // next LSN to assign
	appended   uint64        // highest LSN written to the OS file
	durable    atomic.Uint64 // highest LSN known synced (read without mu by WaitDurable's fast path)
	durableEnd int64         // file offset the durable records end at: how far a cursor may ship

	syncing bool       // a sync is running outside mu
	synced  *sync.Cond // broadcast (on mu) when a sync finishes
	failed  error      // sticky ErrLogFailed after a failed sync

	txn     uint64   // active transaction (0 = none)
	pending []Record // buffered records of the active transaction
	size    int64    // logical log size: the append point
	filled  int64    // physical file size; [size, filled) is zeros

	truncations uint64        // checkpoint epoch: bumped whenever the file is truncated to 0
	truncLSN    uint64        // highest LSN removed by the last checkpoint
	notify      chan struct{} // closed when new records become readable by cursors

	met walMetrics
}

// zeroChunk is how far, in bytes, a SyncOnCommit log is zero-filled past
// its append point at a time: one size change per MiB of log rather than
// one per commit.
const zeroChunk = 1 << 20

// zeros is the static source of zero-fill writes.
var zeros [zeroChunk]byte

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

// syncFile runs one instrumented fsync of f.
func syncFile(f File, met walMetrics) error {
	start := time.Time{}
	if met.fsyncNS != nil {
		start = time.Now()
	}
	if err := f.Sync(); err != nil {
		return err
	}
	met.fsyncs.Inc()
	if !start.IsZero() {
		met.fsyncNS.Observe(time.Since(start))
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
	w := &WAL{f: f, opts: opts, nextLSN: 1, size: size, filled: size, durableEnd: size}
	w.synced = sync.NewCond(&w.mu)
	return w
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
		w.durable.Store(w.appended)
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

// Size returns the log's logical size in bytes: where the next group is
// appended. With SyncOnCommit the file runs on past it in zeros until
// Close trims it.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// BeginTxn starts buffering for transaction id (non-zero).
func (w *WAL) BeginTxn(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
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

// Commit appends the buffered records plus a commit marker and returns
// the marker's LSN. The transaction's effects survive a crash once
// WaitDurable(lsn) returns. A failed append leaves the transaction active
// for the caller to Abort.
func (w *WAL) Commit() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.ReadOnly {
		return 0, fmt.Errorf("wal: commit on read-only log")
	}
	if w.txn == 0 {
		return 0, fmt.Errorf("wal: commit without active transaction")
	}
	commit := Record{LSN: w.nextLSN, Txn: w.txn, Op: OpCommit}
	records := append(w.pending, commit)
	size := 0
	for _, r := range records {
		size += frameHeaderLen + recordHeaderLen + len(r.Data)
	}
	buf := make([]byte, 0, size)
	for _, r := range records {
		buf = appendRecord(buf, r)
	}
	if err := w.appendLocked(buf, commit.LSN, len(records)); err != nil {
		return 0, err
	}
	w.nextLSN++
	w.txn = 0
	w.pending = w.pending[:0]
	return commit.LSN, nil
}

// appendLocked writes buf, whole commit groups ending at LSN last, at the
// append point; records is the group size the metrics record. With
// SyncOnCommit, an append that would pass the zero-filled end first
// extends it by whole zeroChunks. Nothing moves unless every write
// succeeds, so a failed append leaves the log as it was. Caller holds w.mu.
func (w *WAL) appendLocked(buf []byte, last uint64, records int) error {
	if w.failed != nil {
		return w.failed
	}
	start := time.Time{}
	if w.met.appendNS != nil {
		start = time.Now()
	}
	end := w.size + int64(len(buf))
	filled := w.filled
	for w.opts.SyncOnCommit && end > filled {
		if _, err := w.f.WriteAt(zeros[:], filled); err != nil {
			return fmt.Errorf("wal: zero-fill: %w", err)
		}
		filled += zeroChunk
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if !start.IsZero() {
		w.met.appendNS.Observe(time.Since(start))
	}
	w.met.appends.Inc()
	w.met.appendBytes.Add(uint64(len(buf)))
	w.met.groupSize.Record(uint64(records))
	w.size, w.filled = end, max(filled, end)
	w.appended = last
	if !w.opts.SyncOnCommit {
		// Without sync-on-commit the file is as durable as the log promises:
		// cursors may ship it as soon as it is appended.
		w.wakeLocked()
	}
	return nil
}

// WaitDurable returns once every record through lsn is on stable storage,
// or ErrLogFailed if a log sync has failed and lsn is not yet durable.
// Without SyncOnCommit it returns at once. The fast path is one atomic
// load; callers need not hold anything.
func (w *WAL) WaitDurable(lsn uint64) error {
	if !w.opts.SyncOnCommit || lsn <= w.durable.Load() {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked(lsn)
}

// syncLocked returns once every record through lsn is durable; lsn must
// already be appended. It is the log's one sync loop: the first caller to
// find no sync running becomes the syncer and fsyncs, with w.mu released,
// everything appended before it began; the others wait for that sync and
// go round again if it did not cover them. A failed sync becomes the
// log's sticky ErrLogFailed. Caller holds w.mu.
func (w *WAL) syncLocked(lsn uint64) error {
	for lsn > w.durable.Load() {
		if w.failed != nil {
			return w.failed
		}
		if w.syncing {
			w.synced.Wait()
			continue
		}
		w.syncing = true
		target, end, met := w.appended, w.size, w.met
		w.mu.Unlock()
		err := syncFile(w.f, met)
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.failed = fmt.Errorf("%w: %w", ErrLogFailed, err)
		} else if target > w.durable.Load() {
			w.durable.Store(target)
			w.durableEnd = end
			w.wakeLocked()
		}
		w.synced.Broadcast()
	}
	return nil
}

// waitIdleLocked waits until no sync is running, so the file may be
// truncated or closed under it. Caller holds w.mu.
func (w *WAL) waitIdleLocked() {
	for w.syncing {
		w.synced.Wait()
	}
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
	buf := appendRecord(nil, rec)
	buf = appendRecord(buf, commit)
	if err := w.appendLocked(buf, commit.LSN, 2); err != nil {
		return 0, err
	}
	w.nextLSN += 2
	if err := w.syncLocked(commit.LSN); err != nil {
		return 0, err
	}
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
	if lsn <= w.durable.Load() {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn > w.appended {
		return fmt.Errorf("wal: WAL-rule violation: page LSN %d not yet appended (appended through %d)", lsn, w.appended)
	}
	return w.syncLocked(lsn)
}

// Err returns the log's sticky ErrLogFailed, or nil while the log is
// healthy.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Checkpoint truncates the log. The caller must have flushed and synced all
// dirty pages first; the LSN counter keeps advancing across checkpoints.
// A running sync is waited out first: its target offsets die with the
// truncation.
func (w *WAL) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.ReadOnly {
		return fmt.Errorf("wal: checkpoint on read-only log")
	}
	if w.txn != 0 {
		return fmt.Errorf("wal: checkpoint during active transaction %d", w.txn)
	}
	w.waitIdleLocked()
	if w.failed != nil {
		return w.failed
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := syncFile(w.f, w.met); err != nil {
		return fmt.Errorf("wal: sync after truncate: %w", err)
	}
	w.size, w.filled, w.durableEnd = 0, 0, 0
	w.appended = w.nextLSN - 1
	w.durable.Store(w.appended)
	w.truncations++
	w.truncLSN = w.appended
	// Every waiter's commit is now in the synced data file.
	w.synced.Broadcast()
	return nil
}

// Close releases the log file. A healthy log is first trimmed back to its
// logical end, dropping the zero-filled run past it; a failed one is left
// exactly as it is, for recovery to read.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitIdleLocked()
	var err error
	if w.filled > w.size && w.failed == nil && !w.opts.ReadOnly {
		if err = w.f.Truncate(w.size); err == nil {
			w.filled = w.size
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
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
	records, _, _, err := w.readAllLocked()
	return records, err
}

// readAllLocked decodes the intact record prefix and returns it together
// with the byte offset each record ends at and the offset the file's
// trailing run of zeros starts at. A zero-filled tail stops the decode like
// a torn one: its first frame has length 0, too short for a record.
func (w *WAL) readAllLocked() ([]Record, []int64, int64, error) {
	data := make([]byte, w.size)
	if w.size > 0 {
		n, err := w.f.ReadAt(data, 0)
		if err != nil && err != io.EOF {
			return nil, nil, 0, fmt.Errorf("wal: read: %w", err)
		}
		data = data[:n]
	}
	nonZero := int64(len(bytes.TrimRight(data, "\x00")))
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
	return out, ends, nonZero, nil
}

// RecoveryStats summarizes a replay.
type RecoveryStats struct {
	Records   int    // records read from the log
	Committed int    // records belonging to committed transactions
	Replayed  int    // redo operations applied (page-LSN guard may no-op them)
	MaxLSN    uint64 // highest LSN seen
	TornBytes int64  // bytes of torn/corrupt tail truncated away, not counting a zero-filled run

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
	records, ends, nonZero, err := w.readAllLocked()
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
	// The zero-filled run past the append point is padding, not damage.
	stats.TornBytes = nonZero
	if n := len(ends); n > 0 {
		stats.TornBytes = max(0, nonZero-ends[n-1])
	}
	if !w.opts.ReadOnly {
		// A read-only opener must not mutate a file another process may
		// still own; it only ignores the tail.
		if end < w.size {
			if err := w.f.Truncate(end); err != nil {
				return nil, stats, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		if err := syncFile(w.f, w.met); err != nil {
			return nil, stats, fmt.Errorf("wal: sync before replay: %w", err)
		}
	}
	w.size, w.filled, w.durableEnd = end, end, end
	w.nextLSN = max(w.nextLSN, stats.MaxLSN+1)
	if keep > 0 {
		last := records[keep-1].LSN
		w.appended = max(w.appended, last)
		w.durable.Store(max(w.durable.Load(), last))
		// The file still holds these records: cursors may read from the
		// first one onward.
		w.truncLSN = min(w.truncLSN, records[0].LSN-1)
	}
	return records, stats, nil
}
