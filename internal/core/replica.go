// Replication and read-only support: the engine-side half of the WAL-
// shipping subsystem (internal/repl drives the network protocol).
//
//   - Read-only opens run the whole engine — including crash-recovery
//     replay — against a copy-on-write overlay device, so nothing ever
//     reaches the shared file. No writer lease is taken.
//   - Follower opens are writable (the follower owns its directory and
//     holds its lease) but refuse user transactions; their only write path
//     is ApplyReplicated, which appends shipped commit groups to the local
//     WAL and replays them through the same page-exact redo as recovery.
//   - Snapshot streams a point-in-time copy of the store for follower
//     bootstrap; DigestStore hashes the store content, the convergence
//     check of the replication chaos harness.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/wal"
)

// ErrReadOnly reports a write attempted through a read-only or follower
// engine. Followers accept writes only from the replication stream; route
// user writes to the leader.
var ErrReadOnly = errors.New("core: database opened read-only")

// ErrFollowerLayout refuses a follower open of a store that was not
// formatted or snapshotted under page-exact redo. A follower of the previous
// version placed replayed records itself and kept its indexes in the store
// file, so its pages differ from its leader's; applying the leader's
// page-exact records to them would overwrite other records.
var ErrFollowerLayout = errors.New("core: this follower store predates page-exact redo and its pages differ from the leader's; " +
	"delete it and bootstrap the follower again from a leader snapshot")

// --- read-only device plumbing ---------------------------------------------

// roFileDevice is a page device over a file opened without write access.
// Unlike storage.OpenFileDevice it never repairs a torn tail page (that
// would mutate a file another process owns); a trailing partial page is
// simply not visible.
type roFileDevice struct {
	mu    sync.Mutex
	f     *os.File
	pages storage.PageID
}

func openReadOnlyDevice(path string) (*roFileDevice, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open read-only device: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("core: stat read-only device: %w", err)
	}
	return &roFileDevice{f: f, pages: storage.PageID(info.Size() / storage.PageSize)}, nil
}

func (d *roFileDevice) ReadPage(id storage.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.pages {
		return fmt.Errorf("core: read of page %d beyond device end %d", id, d.pages)
	}
	_, err := d.f.ReadAt(buf, int64(id)*storage.PageSize)
	return err
}

func (d *roFileDevice) WritePage(id storage.PageID, buf []byte) error {
	return fmt.Errorf("core: write to read-only device")
}

func (d *roFileDevice) NumPages() storage.PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

func (d *roFileDevice) Sync() error  { return nil }
func (d *roFileDevice) Close() error { return d.f.Close() }

// overlayDevice absorbs every write into memory, reading through to the
// base for untouched pages. It is what lets a read-only open reuse the
// stock engine paths — recovery replay, index rebuild, meta re-marking —
// unchanged: they all "write", and none of it reaches the file.
type overlayDevice struct {
	mu    sync.Mutex
	base  storage.Device
	mem   map[storage.PageID][]byte
	pages storage.PageID
}

func newOverlayDevice(base storage.Device) *overlayDevice {
	return &overlayDevice{base: base, mem: map[storage.PageID][]byte{}, pages: base.NumPages()}
}

func (d *overlayDevice) ReadPage(id storage.PageID, buf []byte) error {
	d.mu.Lock()
	if p, ok := d.mem[id]; ok {
		copy(buf, p)
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	return d.base.ReadPage(id, buf)
}

func (d *overlayDevice) WritePage(id storage.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id > d.pages {
		return fmt.Errorf("core: overlay write to page %d would leave a hole (device has %d)", id, d.pages)
	}
	d.mem[id] = append([]byte(nil), buf...)
	if id == d.pages {
		d.pages++
	}
	return nil
}

func (d *overlayDevice) NumPages() storage.PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

func (d *overlayDevice) Sync() error  { return nil }
func (d *overlayDevice) Close() error { return d.base.Close() }

// --- redo ---------------------------------------------------------------------

// apply redoes committed log records against the store. It is the one op
// switch behind crash recovery, read-only overlay recovery and
// ApplyReplicated. live marks a follower applying a shipped batch to a
// running engine: it also keeps the in-memory indexes and the schema in
// step, where recovery rebuilds and reloads them afterwards. Returns the
// number of records applied.
func (e *Engine) apply(recs []wal.Record, live bool) (int, error) {
	n := 0
	for _, r := range recs {
		var err error
		switch r.Op {
		case wal.OpCommit:
			continue
		case wal.OpHeapInsert, wal.OpHeapUpdate, wal.OpHeapDelete:
			err = e.redoHeap(r, live)
		case wal.OpArchiveWrite:
			// Cold-archive block from a tiering run: reproduce the frame at
			// its offset, so both archives grow through one path and stay
			// byte-identical.
			if len(r.Data) < 8 {
				err = fmt.Errorf("archive record too short (%d bytes)", len(r.Data))
			} else {
				err = e.arc.WriteFrameAt(binary.LittleEndian.Uint64(r.Data), r.Data[8:])
			}
		case wal.OpEpoch:
			// A promotion: adopt the higher epoch, which began at the
			// frontier just before the record itself. It may have reached the
			// log but not the meta page before a crash; the log wins.
			if len(r.Data) < 8 {
				err = fmt.Errorf("epoch record too short (%d bytes)", len(r.Data))
			} else if v := binary.LittleEndian.Uint64(r.Data); v > e.epoch {
				e.epoch, e.epochStart = v, r.LSN-1
			}
		default:
			err = fmt.Errorf("unknown op %d", r.Op)
		}
		if err != nil {
			return n, fmt.Errorf("core: apply LSN %d: %w", r.LSN, err)
		}
		n++
	}
	return n, nil
}

// redoHeap applies one heap record; live also updates the follower's
// indexes, or reloads the schema when the record rewrote the catalog.
func (e *Engine) redoHeap(r wal.Record, live bool) error {
	c, err := r.Change()
	if err != nil {
		return err
	}
	var old []byte
	if live && c.Kind == storage.ChangeDelete {
		// Deletes are logged without data; the pre-image names the index
		// entries the delete invalidates.
		if old, err = e.heap.Fetch(r.RID); err != nil {
			return err
		}
	}
	if err := e.heap.Redo(c, r.LSN); err != nil || !live {
		return err
	}
	switch {
	case c.Kind == storage.ChangeInsert:
		return e.atoms.NoteInsert(r.RID, c.Data)
	case c.Kind == storage.ChangeDelete:
		return e.atoms.NoteDelete(r.RID, old)
	case r.RID == e.catalogRID:
		next, err := schema.Unmarshal(c.Data)
		if err != nil {
			return fmt.Errorf("replicated catalog: %w", err)
		}
		e.schema = next
		e.atoms.SetSchema(next)
		return nil
	}
	return e.atoms.NoteUpdate(r.RID, c.Data)
}

// ApplyReplicated durably appends shipped WAL commit groups to the
// follower's local log and replays them into the store, maintaining the
// primary and type indexes incrementally and reloading the schema when the
// batch rewrites the catalog. Groups already applied (reconnect overlap)
// are skipped. Returns the new watermark: the highest LSN the store now
// reflects.
func (e *Engine) ApplyReplicated(recs []wal.Record) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, fmt.Errorf("core: database closed")
	}
	if !e.opts.Follower {
		return 0, fmt.Errorf("core: ApplyReplicated on a non-follower engine")
	}
	if len(recs) == 0 {
		return e.watermark, nil
	}
	// Same dirty-marking discipline as Begin: the meta page must carry the
	// dirty flag on disk before any replayed page can reach the device.
	if e.diskClean && e.opts.Path != "" {
		if err := e.persistMeta(false); err != nil {
			return 0, err
		}
		if err := e.pool.FlushPage(0); err != nil {
			return 0, err
		}
	}
	e.diskClean = false
	// Local WAL first: once appended, a crash at any point replays these
	// groups through stock recovery — the follower is just a crash-safe
	// engine whose "user" is the leader's log.
	fresh, err := e.log.AppendGroups(recs)
	if err != nil {
		return 0, err
	}
	if _, err := e.apply(fresh, true); err != nil {
		return 0, err
	}
	// Replayed versions carry the leader's transaction times; the local
	// clock must not lag them or default reads would miss applied state.
	e.clock.Advance(e.atoms.MaxTransactionTime())
	e.watermark = e.log.AppendedLSN()
	return e.watermark, nil
}

// Watermark returns the highest LSN this store reflects: the replication
// watermark on a follower, the appended LSN on a leader, 0 for an
// in-memory engine (no log, no LSNs).
func (e *Engine) Watermark() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.opts.Follower {
		return e.watermark
	}
	if e.log != nil {
		return e.log.AppendedLSN()
	}
	return 0
}

// IsFollower reports whether this engine applies a replication stream.
func (e *Engine) IsFollower() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.opts.Follower
}

// IsReadOnly reports whether this engine refuses user writes.
func (e *Engine) IsReadOnly() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.opts.ReadOnly || e.opts.Follower
}

// Epoch returns the replication epoch this store last observed (0 before
// any promotion anywhere in its history).
func (e *Engine) Epoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// EpochStart returns the appended LSN at which the current epoch began:
// every LSN at or below it belongs to pre-promotion history, every one
// above it to the current leader. 0 before any promotion.
func (e *Engine) EpochStart() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epochStart
}

// Promote turns a follower engine into a writable leader: the epoch is
// bumped past both the local store's and the given observed epoch (the
// highest this node ever heard from its leader), an [OpEpoch, OpCommit]
// group is durably appended — so the bump replicates to this node's own
// followers and survives any crash — and user transactions are accepted
// from then on. The returned epoch fences the old leader: a Source at
// this epoch refuses subscribers whose history extends past the epoch's
// start LSN at a lower epoch.
//
// Promotion does not rebuild the optional time/value indexes a follower
// runs without; the promoted store answers every query correctly through
// scans (see DESIGN.md §15 for the full contract).
func (e *Engine) Promote(observedEpoch uint64) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, fmt.Errorf("core: database closed")
	}
	if !e.opts.Follower {
		return 0, fmt.Errorf("core: promote on a non-follower engine")
	}
	newEpoch := e.epoch
	if observedEpoch > newEpoch {
		newEpoch = observedEpoch
	}
	newEpoch++
	start := e.log.AppendedLSN()
	// Same dirty-marking discipline as Begin: the meta page must carry the
	// dirty flag on disk before the epoch group's effects can matter.
	if e.diskClean && e.opts.Path != "" {
		if err := e.persistMeta(false); err != nil {
			return 0, err
		}
		if err := e.pool.FlushPage(0); err != nil {
			return 0, err
		}
	}
	e.diskClean = false
	// The indexes move from memory into the store, where a leader keeps
	// them; the time and value indexes stay off (DESIGN.md §15).
	if _, err := e.atoms.RebuildIndexes(e.pool); err != nil {
		return 0, err
	}
	e.idxPool = e.pool
	if _, err := e.log.AppendEpochGroup(newEpoch); err != nil {
		return 0, err
	}
	e.epoch = newEpoch
	e.epochStart = start
	e.opts.Follower = false
	e.watermark = e.log.AppendedLSN()
	return newEpoch, nil
}

// --- snapshot + digest ------------------------------------------------------

// Snapshot checkpoints the store and streams a point-in-time copy to w,
// holding the writer lock throughout (writes stall for the duration; the
// follower count makes that a rare, explicit cost). The stream is an
// 8-byte big-endian device byte count, the device pages, then the cold
// archive's logical content — the receiver splits it back into the two
// files. offer is called once before the first byte with the LSN the log
// stream resumes from and the exact byte size; the SHA-256 digest of the
// streamed bytes is returned for end-to-end verification.
func (e *Engine) Snapshot(offer func(startLSN, size uint64) error, w io.Writer) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("core: database closed")
	}
	if e.log == nil {
		return nil, fmt.Errorf("core: in-memory database cannot be snapshotted (no log)")
	}
	// After a checkpoint the device plus archive are the complete store:
	// every page is flushed, the archive is synced, the meta (carrying the
	// archive's committed size) is clean, and the log is empty. The meta
	// marks the copy as one a follower may apply page-exact redo to.
	e.pageExact = true
	if err := e.checkpointLocked(); err != nil {
		return nil, err
	}
	n := e.dev.NumPages()
	devBytes := uint64(n) * storage.PageSize
	size := 8 + devBytes + e.arc.Size()
	if err := offer(e.log.NextLSN(), size); err != nil {
		return nil, err
	}
	h := sha256.New()
	out := io.MultiWriter(w, h)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], devBytes)
	if _, err := out.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("core: snapshot write: %w", err)
	}
	buf := make([]byte, storage.PageSize)
	for id := storage.PageID(0); id < n; id++ {
		if err := e.dev.ReadPage(id, buf); err != nil {
			return nil, fmt.Errorf("core: snapshot page %d: %w", id, err)
		}
		if _, err := out.Write(buf); err != nil {
			return nil, fmt.Errorf("core: snapshot write: %w", err)
		}
	}
	if _, err := e.arc.WriteContent(out); err != nil {
		return nil, fmt.Errorf("core: snapshot archive: %w", err)
	}
	return h.Sum(nil), nil
}

// DigestStore hashes the store content: every live record, in Heap.Scan
// order, with its home RID and resolved payload, then the cold archive. A
// follower's heap pages are the leader's pages — redo is page-exact — so
// the two scans visit the same records in the same order and the digests
// agree exactly when the stores do. (Index pages stay out: they are
// unlogged, and a follower keeps its indexes in memory.)
func (e *Engine) DigestStore() ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h := sha256.New()
	var scratch [12]byte
	err := e.heap.Scan(func(rid storage.RID, data []byte) (bool, error) {
		packRIDLen(scratch[:], rid, len(data))
		h.Write(scratch[:])
		h.Write(data)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	// The cold archive is part of the logical store: hot records hold
	// pointers into it, and a leader/follower pair must agree on what those
	// pointers resolve to. Its content is append-only and written through
	// one replicated path, so hashing the raw logical bytes is placement-
	// independent. The length frame separates it from the record section.
	var arcLen [8]byte
	binary.BigEndian.PutUint64(arcLen[:], e.arc.Size())
	h.Write(arcLen[:])
	if _, err := e.arc.WriteContent(h); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// packRIDLen encodes (rid, payload length) into buf — the record framing
// of the store digest.
func packRIDLen(buf []byte, rid storage.RID, n int) {
	v := rid.Pack()
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (56 - 8*i))
	}
	for i := 0; i < 4; i++ {
		buf[8+i] = byte(uint32(n) >> (24 - 8*i))
	}
}
