// Package core assembles the full temporal complex-object engine: storage
// device, buffer pool, write-ahead log, transaction manager, catalog,
// temporal atom manager, molecule builder, and TMQL query engine — the
// realization of the temporal complex-object data model on a conventional
// record-oriented store.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/molecule"
	"tcodm/internal/obs"
	"tcodm/internal/query"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/txn"
	"tcodm/internal/value"
	"tcodm/internal/wal"
)

// Options configure a database.
type Options struct {
	// Path is the database file; the log lives at Path+".wal". Empty
	// means an ephemeral in-memory database (no log, no durability).
	Path string
	// Strategy selects the physical mapping (default: separated).
	Strategy atom.Strategy
	// PoolPages sizes the buffer pool (default 1024 pages = 8 MiB).
	PoolPages int
	// SyncOnCommit fsyncs the log on every commit.
	SyncOnCommit bool
	// TimeIndex maintains the version time index.
	TimeIndex bool
	// ValueIndex maintains secondary value indexes over plain attributes.
	ValueIndex bool
	// SegmentCap bounds history segment size (separated strategy).
	SegmentCap int
	// OpenDevice, when non-nil, replaces storage.OpenFileDevice for the
	// data file (fault-injection seam; see internal/fault).
	OpenDevice func(path string) (storage.Device, error)
	// OpenWAL, when non-nil, replaces wal.Open for the log file (fault-
	// injection seam; see internal/fault).
	OpenWAL func(path string, opts wal.Options) (*wal.WAL, error)
	// OpenArchive, when non-nil, replaces storage.OpenArchive for the cold
	// archive file at Path+".arc" (fault-injection seam; see internal/fault).
	OpenArchive func(path string) (*storage.Archive, error)
	// SlowQueryThreshold enables the slow-query log for queries at or
	// above the given duration (0 = disabled; adjustable at runtime via
	// SlowLog().SetThreshold).
	SlowQueryThreshold time.Duration
	// QueryWorkers caps intra-query parallelism: candidate streams are
	// partitioned across this many goroutines with an order-preserving
	// merge (results are byte-identical to serial execution). 0 defaults
	// to GOMAXPROCS; 1 forces the exact serial path.
	QueryWorkers int
	// ReadOnly opens the database without the writer lease, sharing the
	// directory with a live writer process. All mutation entry points
	// return ErrReadOnly; recovery replay and other internal writes land
	// in an in-memory overlay and never reach the files.
	ReadOnly bool
	// Follower marks this engine as a replication follower: it owns its
	// directory (writable, leased) but refuses user transactions — its
	// only write path is ApplyReplicated. Time and value indexes are
	// force-disabled (they cannot be maintained incrementally from the
	// log without risking stale under-approximate candidate sets), and the
	// primary and type indexes live in memory, rebuilt at open, so every
	// page of the store file is the leader's page of the same number.
	Follower bool
}

// Engine is one open database.
type Engine struct {
	mu sync.RWMutex

	opts    Options
	dev     storage.Device
	pool    *storage.BufferPool
	idxPool *storage.BufferPool // holds the atom indexes: pool, or in memory on a follower
	heap    *storage.Heap
	log     *wal.WAL
	arc     *storage.Archive
	clock   *temporal.Clock
	txns    *txn.Manager
	schema  *schema.Schema
	atoms   *atom.Manager
	builder *molecule.Builder
	queries *query.Engine

	catalogRID storage.RID
	closed     bool
	diskClean  bool // on-disk meta currently carries the clean mark

	// lease is the exclusive writer lock (nil for read-only and in-memory
	// engines); watermark is the highest replicated LSN a follower's store
	// reflects, advanced only by ApplyReplicated.
	lease     *lease
	watermark uint64

	// epoch is the replication epoch this store last observed (0 before
	// any promotion); epochStart is the appended LSN at which it began.
	// Bumped by Promote on this node, advanced by OpEpoch records on
	// followers, persisted in the meta page and recoverable from the log.
	epoch      uint64
	epochStart uint64

	// pageExact marks a store whose heap pages may take the leader's
	// page-exact redo: it was formatted, or streamed by Snapshot, by a
	// version whose redo never places a record. Persisted in the meta page.
	pageExact bool

	// Recovered reports whether opening required crash recovery.
	Recovered bool

	// metrics is the engine-wide registry.
	metrics *obs.Registry
	// slow is the slow-query log (always non-nil; threshold 0 disables).
	slow *obs.SlowLog
	// tracer records recent engine events in a bounded ring.
	tracer *obs.Tracer
	// recovery holds the WAL replay statistics from the last unclean open.
	recovery wal.RecoveryStats

	queryNS   *obs.Histogram // query latency (ns)
	queryRuns *obs.Counter
}

// metaPayload is the engine state persisted in the meta page.
type metaPayload struct {
	Strategy   string           `json:"strategy"`
	SegmentCap int              `json:"segment_cap"`
	TimeIndex  bool             `json:"time_index"`
	CatalogRID uint64           `json:"catalog_rid"`
	Primary    storage.PageID   `json:"primary_root"`
	TypeIdx    storage.PageID   `json:"type_root"`
	TimeIdx    storage.PageID   `json:"time_root"`
	ValueIdx   storage.PageID   `json:"value_root"`
	ValueIndex bool             `json:"value_index"`
	NextID     uint64           `json:"next_id"`
	Clock      temporal.Instant `json:"clock"`
	NextLSN    uint64           `json:"next_lsn"`
	FreePages  []storage.PageID `json:"free_pages,omitempty"`
	// Pages is the device size when this meta was written — the crash
	// horizon. Pages allocated at or beyond it carry only data the log can
	// reproduce, so recovery may quarantine them if a torn write left them
	// checksum-invalid. 0 in databases written before horizon tracking.
	Pages storage.PageID `json:"pages,omitempty"`
	// ArchiveSize is the cold archive's committed logical size (the append
	// frontier). Physical bytes past it belong to uncommitted migrations and
	// are overwritten by the next archival run. 0/absent in databases
	// written before archive tiering (SetSize clamps to the header size).
	ArchiveSize uint64 `json:"archive_size,omitempty"`
	// Epoch is the replication epoch the store last observed and
	// EpochStart the appended LSN at which it began. 0/absent in
	// databases that predate failover (never promoted, never led by a
	// promoted leader).
	Epoch      uint64 `json:"epoch,omitempty"`
	EpochStart uint64 `json:"epoch_start,omitempty"`
	// PageExact is set at bootstrap and by Snapshot, and kept from then on.
	// Absent in stores formatted or snapshotted before page-exact redo: a
	// follower of that era placed replayed records itself, so its pages
	// differ from its leader's and it may not follow again.
	PageExact bool `json:"page_exact,omitempty"`
}

// Open opens (creating if absent) a database.
func Open(opts Options) (*Engine, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 1024
	}
	e := &Engine{opts: opts, clock: temporal.NewClock(0)}
	e.slow = obs.NewSlowLog(64, opts.SlowQueryThreshold)
	e.metrics = obs.New()
	// The ring holds span trees, not just points: a traced query emits
	// ~10 events, so size for a few hundred recent queries.
	e.tracer = obs.NewTracer(4096)
	e.queryNS = e.metrics.Histogram("query.ns")
	e.queryRuns = e.metrics.Counter("query.runs")

	if opts.ReadOnly && opts.Follower {
		return nil, fmt.Errorf("core: ReadOnly and Follower are mutually exclusive open modes")
	}
	if (opts.ReadOnly || opts.Follower) && opts.Path == "" {
		return nil, fmt.Errorf("core: read-only and follower modes require a database path")
	}
	if opts.Follower {
		// A follower cannot maintain these incrementally from the log;
		// stale entries would under-approximate query candidate sets.
		opts.TimeIndex = false
		opts.ValueIndex = false
		e.opts = opts
	}

	var err error
	switch {
	case opts.Path == "":
		e.dev = storage.NewMemDevice()
		e.arc = storage.NewMemArchive()
	case opts.ReadOnly:
		// No lease: share the directory with a live writer. All writes the
		// engine performs internally (recovery replay, torn-page
		// quarantine, meta re-marking) land in the overlay.
		ro, err := openReadOnlyDevice(opts.Path)
		if err != nil {
			return nil, err
		}
		e.dev = newOverlayDevice(ro)
		e.log, err = wal.Open(opts.Path+".wal", wal.Options{ReadOnly: true})
		if err != nil {
			e.dev.Close()
			return nil, err
		}
		// The archive is copied into memory: recovery replay may re-apply
		// frames, and a reader must never write the shared file.
		arcBytes, rerr := os.ReadFile(opts.Path + ".arc")
		if rerr != nil && !os.IsNotExist(rerr) {
			e.log.Close()
			e.dev.Close()
			return nil, rerr
		}
		e.arc, err = storage.OpenArchiveCopy(arcBytes)
		if err != nil {
			e.log.Close()
			e.dev.Close()
			return nil, err
		}
	default:
		e.lease, err = acquireLease(opts.Path)
		if err != nil {
			return nil, err
		}
		openDev := opts.OpenDevice
		if openDev == nil {
			openDev = func(p string) (storage.Device, error) { return storage.OpenFileDevice(p) }
		}
		openWAL := wal.Open
		if opts.OpenWAL != nil {
			openWAL = opts.OpenWAL
		}
		e.dev, err = openDev(opts.Path)
		if err != nil {
			e.lease.release()
			return nil, err
		}
		// A database is born when its meta page (with magic) lands; FlushAll
		// writes page 0 last, so a crash during the very first flush leaves
		// page 0 all-zero. Such a half-born file holds nothing committed —
		// wipe it and bootstrap from scratch rather than refusing to open.
		if e.dev.NumPages() > 0 {
			buf := make([]byte, storage.PageSize)
			if err := e.dev.ReadPage(0, buf); err != nil {
				e.dev.Close()
				e.lease.release()
				return nil, err
			}
			if allZero(buf) {
				e.dev.Close()
				if err := os.Remove(opts.Path); err != nil {
					e.lease.release()
					return nil, fmt.Errorf("core: wiping half-born database: %w", err)
				}
				os.Remove(opts.Path + ".wal")
				os.Remove(opts.Path + ".arc")
				e.dev, err = openDev(opts.Path)
				if err != nil {
					e.lease.release()
					return nil, err
				}
			}
		}
		e.log, err = openWAL(opts.Path+".wal", wal.Options{SyncOnCommit: opts.SyncOnCommit})
		if err != nil {
			e.dev.Close()
			e.lease.release()
			return nil, err
		}
		openArc := storage.OpenArchive
		if opts.OpenArchive != nil {
			openArc = opts.OpenArchive
		}
		e.arc, err = openArc(opts.Path + ".arc")
		if err != nil {
			e.log.Close()
			e.dev.Close()
			e.lease.release()
			return nil, err
		}
	}
	e.pool = storage.NewBufferPool(e.dev, opts.PoolPages)
	if e.log != nil {
		e.pool.SetFlushHook(e.log.EnsureDurable)
	}
	e.idxPool = e.pool
	if opts.Follower {
		// The leader's log names heap pages by number; indexes allocated from
		// the store file would take numbers the leader later fills.
		e.idxPool = storage.NewBufferPool(storage.NewMemDevice(), opts.PoolPages)
	}
	e.heap = storage.NewHeap(e.pool, nil)
	// Bind component instrumentation.
	e.pool.SetMetrics(e.metrics)
	e.heap.SetMetrics(e.metrics)
	e.arc.SetMetrics(e.metrics)
	if e.log != nil {
		e.log.SetMetrics(e.metrics)
	}

	if e.dev.NumPages() == 0 {
		err = e.bootstrap()
	} else {
		err = e.recoverOrLoad()
	}
	if err != nil {
		e.closeFiles()
		return nil, err
	}
	if e.log != nil {
		e.heap.SetLogger(e.log)
	}
	e.atoms.SetMetrics(e.metrics)
	e.txns = txn.NewManager(e.clock, e.log, e.heap, e.pool)
	e.txns.SetMetrics(e.metrics)
	e.builder = molecule.NewBuilder(e.atoms)
	e.queries = query.NewEngine(e.atoms)
	e.queries.Workers = opts.QueryWorkers
	if e.queries.Workers == 0 {
		e.queries.Workers = runtime.GOMAXPROCS(0)
	}
	e.queries.SetMetrics(e.metrics)
	e.queries.SetTracer(e.tracer)
	// Record how the database came up; after a clean open all recovery
	// gauges read zero.
	e.metrics.Gauge("recovery.records").Set(int64(e.recovery.Records))
	e.metrics.Gauge("recovery.committed").Set(int64(e.recovery.Committed))
	e.metrics.Gauge("recovery.replayed").Set(int64(e.recovery.Replayed))
	e.metrics.Gauge("recovery.torn_bytes").Set(e.recovery.TornBytes)
	if e.Recovered {
		e.metrics.Gauge("recovery.unclean_opens").Set(1)
	}

	// Mark the database dirty on disk so a crash triggers recovery. A
	// read-only open leaves the file exactly as found (the mark would only
	// land in the overlay anyway).
	if opts.Path != "" && !opts.ReadOnly {
		if err := e.persistMeta(false); err != nil {
			e.closeFiles()
			return nil, err
		}
		if err := e.pool.FlushAll(); err != nil {
			e.closeFiles()
			return nil, err
		}
	}
	if opts.Follower && e.log != nil {
		// Everything in the local log is already applied (recovery replayed
		// any unapplied suffix above): the store reflects exactly this LSN.
		e.watermark = e.log.AppendedLSN()
	}
	return e, nil
}

// engineArchive couples the cold-archive store to the WAL: every block
// append is also logged, so a crash mid-migration replays the exact frame
// at the exact offset — the same redo discipline heap pages get. Reads
// bypass the log entirely.
type engineArchive struct {
	arc *storage.Archive
	log *wal.WAL // nil for unlogged (in-memory) engines
}

func (s engineArchive) Append(payload []byte) (uint64, error) {
	off, frame, err := s.arc.Append(payload)
	if err != nil {
		return 0, err
	}
	if s.log != nil {
		s.log.LogArchiveWrite(off, frame)
	}
	return off, nil
}

func (s engineArchive) ReadBlock(off uint64, acc *obs.Resources) ([]byte, error) {
	return s.arc.ReadBlock(off, acc)
}

// archiveSink builds the manager-facing sink for this engine.
func (e *Engine) archiveSink() atom.ArchiveSink {
	return engineArchive{arc: e.arc, log: e.log}
}

// bootstrap formats a fresh database.
func (e *Engine) bootstrap() error {
	if err := storage.InitMeta(e.pool); err != nil {
		return err
	}
	e.pageExact = true
	e.schema = schema.New()
	e.schema.Freeze()
	catBytes, err := e.schema.Marshal()
	if err != nil {
		return err
	}
	e.catalogRID, err = e.heap.Insert(catBytes)
	if err != nil {
		return err
	}
	e.atoms, err = atom.NewManager(e.heap, e.idxPool, e.schema, atom.Options{
		Strategy: e.opts.Strategy, SegmentCap: e.opts.SegmentCap,
		TimeIndex: e.opts.TimeIndex, ValueIndex: e.opts.ValueIndex,
	})
	if err != nil {
		return err
	}
	e.atoms.SetArchive(e.archiveSink())
	return nil
}

// recoverOrLoad opens an existing database, replaying the log and
// rebuilding indexes when the previous shutdown was unclean.
func (e *Engine) recoverOrLoad() error {
	payload, clean, err := storage.ReadMeta(e.pool)
	if err != nil {
		return err
	}
	var meta metaPayload
	if err := json.Unmarshal(payload, &meta); err != nil {
		return fmt.Errorf("core: corrupt meta payload: %w", err)
	}
	strat, ok := atom.ParseStrategy(meta.Strategy)
	if !ok {
		return fmt.Errorf("core: unknown stored strategy %q", meta.Strategy)
	}
	e.opts.Strategy = strat
	e.opts.SegmentCap = meta.SegmentCap
	e.opts.TimeIndex = meta.TimeIndex
	e.opts.ValueIndex = meta.ValueIndex
	if e.opts.Follower {
		// The directory may carry a leader's meta (snapshot bootstrap);
		// follower mode overrides its index flags unconditionally.
		e.opts.TimeIndex = false
		e.opts.ValueIndex = false
		meta.TimeIndex = false
		meta.ValueIndex = false
	}
	e.pageExact = meta.PageExact
	if e.opts.Follower && !e.pageExact {
		return ErrFollowerLayout
	}
	e.clock.Advance(meta.Clock)
	e.epoch = meta.Epoch
	e.epochStart = meta.EpochStart
	if !e.opts.Follower {
		// A follower allocates nothing until promoted, while the leader's log
		// may fill any page its persisted free list names.
		e.pool.SetFreePages(meta.FreePages)
	}
	// Rewind the archive's append frontier to the committed size: physical
	// bytes past it were staged by migrations that never committed, and the
	// next Append overwrites them. Replay below re-extends the frontier for
	// every committed OpArchiveWrite it re-applies.
	e.arc.SetSize(meta.ArchiveSize)
	if e.log != nil {
		e.log.SetNextLSN(meta.NextLSN)
	}
	if !clean {
		// Sweep for torn writes before anything walks the device: a page
		// the crash left checksum-invalid would otherwise abort the heap
		// scan and index rebuild below and brick the database even when the
		// page held nothing the log cannot reproduce.
		if err := e.quarantineTornPages(meta.Pages); err != nil {
			return err
		}
	}
	if err := e.heap.Rebuild(e.dev); err != nil {
		return err
	}

	if !clean {
		e.Recovered = true
		if e.log == nil {
			return fmt.Errorf("core: database is marked dirty but has no log")
		}
		// The persisted free list predates the crash and may name pages
		// the replayed transactions reused; drop it (leaking the pages is
		// safe, reusing them is not).
		e.pool.SetFreePages(nil)
		recs, rstats, err := e.log.Recover()
		if err != nil {
			return err
		}
		e.recovery = rstats
		if e.recovery.Replayed, err = e.apply(recs, false); err != nil {
			return err
		}
	}

	e.catalogRID = storage.UnpackRID(meta.CatalogRID)
	catBytes, err := e.heap.Fetch(e.catalogRID)
	if err != nil {
		return fmt.Errorf("core: loading catalog: %w", err)
	}
	e.schema, err = schema.Unmarshal(catBytes)
	if err != nil {
		return err
	}

	mgrOpts := atom.Options{Strategy: strat, SegmentCap: meta.SegmentCap,
		TimeIndex: meta.TimeIndex, ValueIndex: meta.ValueIndex}
	if clean && !e.opts.Follower && meta.Primary != storage.InvalidPage {
		e.atoms, err = atom.OpenManager(e.heap, e.pool, e.schema, mgrOpts, atom.Roots{
			Primary: meta.Primary, Type: meta.TypeIdx, Time: meta.TimeIdx,
			Value: meta.ValueIdx, NextID: meta.NextID,
		})
		if err != nil {
			return err
		}
		e.atoms.SetArchive(e.archiveSink())
		return nil
	}
	// Unclean shutdown, a follower, or a store a follower last closed
	// (its indexes lived in memory): rebuild the indexes. The archive must
	// be attached first — the rebuild loads atoms at full fidelity, and a
	// time index missing archived versions would under-approximate
	// candidate sets for deep ASOF queries.
	e.atoms, err = atom.NewManager(e.heap, e.idxPool, e.schema, mgrOpts)
	if err != nil {
		return err
	}
	e.atoms.SetArchive(e.archiveSink())
	if _, err = e.atoms.RebuildIndexes(e.idxPool); err != nil {
		return err
	}
	// The persisted clock predates the crash: replayed commits carry
	// transaction times past it. Left behind, the clock would stamp
	// post-recovery commits with already-used transaction instants, and
	// the replayed versions would bitemporally shadow the new ones after
	// the next recovery. Advance past everything the rebuild scan saw.
	e.clock.Advance(e.atoms.MaxTransactionTime())
	return nil
}

// allZero reports whether every byte of buf is zero.
func allZero(buf []byte) bool {
	for _, b := range buf {
		if b != 0 {
			return false
		}
	}
	return true
}

// quarantineTornPages scans the raw device for checksum-invalid pages left
// behind by a torn write at crash time. A bad page at or beyond the crash
// horizon (the device size recorded by the last durable meta write) holds
// only data written after that point, which the log replay reconstructs in
// full — so it is zeroed and left out of circulation. A bad page below the
// horizon held checkpointed, committed state the log no longer covers;
// that damage is unrepairable and must be refused, not papered over.
func (e *Engine) quarantineTornPages(horizon storage.PageID) error {
	if horizon == 0 {
		// Database written before horizon tracking: nothing is provably
		// log-reconstructible, so leave pages alone and let the checksum
		// verification in the fetch path report any damage.
		return nil
	}
	buf := make([]byte, storage.PageSize)
	n := e.dev.NumPages()
	for id := storage.PageID(0); id < n; id++ {
		if err := e.dev.ReadPage(id, buf); err != nil {
			return err
		}
		if storage.VerifyPageChecksum(id, buf) == nil {
			continue
		}
		if id < horizon {
			return fmt.Errorf("core: page %d fails its checksum and predates the last checkpoint; committed data is damaged beyond what the log can repair", id)
		}
		if err := e.pool.ZapPage(id); err != nil {
			return err
		}
	}
	return nil
}

// persistMeta stores the engine state in the meta page.
func (e *Engine) persistMeta(clean bool) error {
	roots := e.atoms.Roots()
	if e.idxPool != e.pool {
		// A follower's indexes are in memory: no root in the file is valid.
		roots.Primary, roots.Type = storage.InvalidPage, storage.InvalidPage
	}
	meta := metaPayload{
		Strategy:    e.opts.Strategy.String(),
		SegmentCap:  e.opts.SegmentCap,
		TimeIndex:   e.opts.TimeIndex,
		CatalogRID:  e.catalogRID.Pack(),
		Primary:     roots.Primary,
		TypeIdx:     roots.Type,
		TimeIdx:     roots.Time,
		ValueIdx:    roots.Value,
		ValueIndex:  e.opts.ValueIndex,
		NextID:      roots.NextID,
		Clock:       e.clock.Now(),
		FreePages:   e.pool.FreePages(),
		Pages:       e.dev.NumPages(),
		ArchiveSize: e.arc.Size(),
		Epoch:       e.epoch,
		EpochStart:  e.epochStart,
		PageExact:   e.pageExact,
	}
	if e.log != nil {
		meta.NextLSN = e.log.NextLSN()
	}
	payload, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return storage.WriteMeta(e.pool, payload, clean)
}

// Checkpoint flushes all state, persists the meta page (marked clean), and
// truncates the log.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.opts.ReadOnly {
		return ErrReadOnly
	}
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	// Order matters: all data pages must be durable before the clean flag
	// is. First flush everything with the meta page still marked dirty,
	// then truncate the log, and only then persist the clean mark.
	if err := e.persistMeta(false); err != nil {
		return err
	}
	// Archive bytes must be durable before the log truncates: the
	// OpArchiveWrite records about to be discarded are their only redo.
	if err := e.arc.Sync(); err != nil {
		return err
	}
	if err := e.txns.Checkpoint(); err != nil {
		return err
	}
	if err := e.persistMeta(true); err != nil {
		return err
	}
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	e.diskClean = true
	return nil
}

// Close checkpoints and releases the database.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.opts.ReadOnly {
		// Nothing to persist: every internal write went to the overlay.
		return e.closeFiles()
	}
	if err := e.checkpointLocked(); err != nil {
		e.closeFiles()
		return err
	}
	return e.closeFiles()
}

// Crash abandons the database without checkpointing: buffered pages are
// discarded and files are closed as-is, leaving the on-disk state exactly
// as a process crash would. Recovery runs on the next Open. Test support.
func (e *Engine) Crash() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	return e.closeFiles()
}

func (e *Engine) closeFiles() error {
	var firstErr error
	if e.log != nil {
		if err := e.log.Close(); err != nil {
			firstErr = err
		}
	}
	if e.arc != nil {
		if err := e.arc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if e.dev != nil {
		if err := e.dev.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := e.lease.release(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Schema returns the current (frozen) schema.
func (e *Engine) Schema() *schema.Schema {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.schema
}

// Atoms exposes the atom manager (benchmark and tooling access).
func (e *Engine) Atoms() *atom.Manager { return e.atoms }

// Pool exposes the buffer pool (statistics).
func (e *Engine) Pool() *storage.BufferPool { return e.pool }

// Log exposes the WAL (may be nil).
func (e *Engine) Log() *wal.WAL { return e.log }

// Now returns the engine clock's current instant.
func (e *Engine) Now() temporal.Instant { return e.clock.Now() }

// AdvanceClock moves the engine clock forward to at least t (lets
// applications couple valid time to transaction time).
func (e *Engine) AdvanceClock(t temporal.Instant) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clock.Advance(t)
}

// --- DDL -------------------------------------------------------------------

// DefineAtomType adds an atom type to the schema (atomic, durable).
func (e *Engine) DefineAtomType(t schema.AtomType) error {
	return e.ddl(func(s *schema.Schema) error { return s.AddAtomType(t) })
}

// DefineAttribute adds an attribute to an existing atom type (schema
// evolution). Atoms written earlier read Null for it until first updated.
func (e *Engine) DefineAttribute(typeName string, a schema.Attribute) error {
	return e.ddl(func(s *schema.Schema) error { return s.AddAttribute(typeName, a) })
}

// DefineMoleculeType adds a molecule type to the schema.
func (e *Engine) DefineMoleculeType(m schema.MoleculeType) error {
	return e.ddl(func(s *schema.Schema) error { return s.AddMoleculeType(m) })
}

func (e *Engine) ddl(mutate func(*schema.Schema) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.opts.ReadOnly || e.opts.Follower {
		return ErrReadOnly
	}
	next := e.schema.Clone()
	if err := mutate(next); err != nil {
		return err
	}
	next.Freeze()
	catBytes, err := next.Marshal()
	if err != nil {
		return err
	}
	// Persist the catalog atomically through a transaction.
	tx, err := e.txns.Begin()
	if err != nil {
		return err
	}
	if err := e.heap.Update(e.catalogRID, catBytes); err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	e.schema = next
	e.atoms.SetSchema(next)
	return nil
}

// --- Transactions ------------------------------------------------------------

// Txn is a write transaction over the engine. Mutations carry the
// transaction's TT; they become visible and durable together at Commit.
type Txn struct {
	e     *Engine
	inner *txn.Txn
	// span traces the transaction; its Resources carry the exact WAL bytes
	// the commit appended (single-writer log, so the size delta is exact).
	span *obs.Span
	wal0 int64
}

// Begin starts a write transaction (engine-wide writer exclusion).
func (e *Engine) Begin() (*Txn, error) {
	e.mu.Lock() // held until Commit/Abort
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: database closed")
	}
	if e.opts.ReadOnly || e.opts.Follower {
		e.mu.Unlock()
		return nil, ErrReadOnly
	}
	// Re-mark the database dirty before the first write after a
	// checkpoint, so a crash triggers recovery.
	if e.diskClean && e.opts.Path != "" {
		if err := e.persistMeta(false); err != nil {
			e.mu.Unlock()
			return nil, err
		}
		if err := e.pool.FlushPage(0); err != nil {
			e.mu.Unlock()
			return nil, err
		}
	}
	e.diskClean = false
	inner, err := e.txns.Begin()
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.atoms.SetIndexUndo(inner)
	tx := &Txn{e: e, inner: inner}
	if e.tracer != nil {
		tx.span = e.tracer.Start(e.tracer.NextTraceID(), "txn")
		if e.log != nil {
			tx.wal0 = e.log.Size()
		}
	}
	return tx, nil
}

// TT returns the transaction's transaction-time instant.
func (t *Txn) TT() temporal.Instant { return t.inner.TT }

// Commit makes the transaction durable and visible. If the log append or
// sync fails, the transaction is rolled back before returning: a failed
// commit must not leave the writer slot held or half-applied state in
// memory, or the engine would be wedged for every later transaction.
func (t *Txn) Commit() error {
	t.e.atoms.SetIndexUndo(nil)
	err := t.inner.Commit()
	if err != nil {
		_ = t.inner.Abort()
	}
	if t.span != nil {
		// Measure after the commit record lands so the delta covers it.
		if t.e.log != nil {
			if d := t.e.log.Size() - t.wal0; d > 0 {
				t.span.Account(obs.Resources{WALBytes: uint64(d)})
			}
		}
		if err != nil {
			t.span.End("error: " + err.Error())
		} else {
			t.span.End("committed")
		}
	}
	t.e.mu.Unlock()
	return err
}

// Abort rolls the transaction back.
func (t *Txn) Abort() error {
	t.e.atoms.SetIndexUndo(nil)
	err := t.inner.Abort()
	t.span.End("aborted")
	t.e.mu.Unlock()
	return err
}

// Insert creates an atom alive from validFrom.
func (t *Txn) Insert(typeName string, vals map[string]value.V, validFrom temporal.Instant) (value.ID, error) {
	return t.e.atoms.Insert(typeName, vals, validFrom, t.inner.TT)
}

// Update records a new attribute value over iv.
func (t *Txn) Update(id value.ID, attr string, v value.V, iv temporal.Interval) error {
	return t.e.atoms.UpdateAttr(id, attr, v, iv, t.inner.TT)
}

// Set records a new attribute value from validFrom on (the common case).
func (t *Txn) Set(id value.ID, attr string, v value.V, validFrom temporal.Instant) error {
	return t.e.atoms.UpdateAttr(id, attr, v, temporal.Open(validFrom), t.inner.TT)
}

// AddRef attaches target to a many-reference over iv.
func (t *Txn) AddRef(id value.ID, attr string, target value.ID, iv temporal.Interval) error {
	return t.e.atoms.AddRef(id, attr, target, iv, t.inner.TT)
}

// RemoveRef detaches target from a many-reference over iv.
func (t *Txn) RemoveRef(id value.ID, attr string, target value.ID, iv temporal.Interval) error {
	return t.e.atoms.RemoveRef(id, attr, target, iv, t.inner.TT)
}

// Delete ends an atom's existence from valid time `from` on.
func (t *Txn) Delete(id value.ID, from temporal.Instant) error {
	return t.e.atoms.Delete(id, from, t.inner.TT)
}

// Revive resumes a deleted atom's existence from valid time `from` on.
func (t *Txn) Revive(id value.ID, from temporal.Instant) error {
	return t.e.atoms.Revive(id, from, t.inner.TT)
}

// --- Reads -------------------------------------------------------------------

// StateAt returns one atom's state at (vt, tt). Pass atom.Now as tt for
// the latest recorded state.
func (e *Engine) StateAt(id value.ID, vt, tt temporal.Instant) (*atom.State, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.atoms.StateAt(id, vt, tt)
}

// History returns an attribute's valid-time history at transaction time tt.
func (e *Engine) History(id value.ID, attr string, tt temporal.Instant) ([]atom.Version, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.atoms.History(id, attr, tt)
}

// Molecule materializes a complex object at (vt, tt).
func (e *Engine) Molecule(molType string, root value.ID, vt, tt temporal.Instant) (*molecule.Molecule, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	mt, ok := e.schema.MoleculeType(molType)
	if !ok {
		return nil, fmt.Errorf("core: unknown molecule type %q", molType)
	}
	return e.builder.Materialize(mt, root, vt, tt)
}

// MoleculeHistory returns the step-wise history of a complex object.
func (e *Engine) MoleculeHistory(molType string, root value.ID, window temporal.Interval, tt temporal.Instant) ([]molecule.HistoryStep, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	mt, ok := e.schema.MoleculeType(molType)
	if !ok {
		return nil, fmt.Errorf("core: unknown molecule type %q", molType)
	}
	return e.builder.History(mt, root, window, tt)
}

// Vacuum purges versions that left the recorded state before transaction
// time beforeTT, reclaiming space while preserving every answer for
// tt >= beforeTT. Runs as a single transaction; beforeTT must not exceed
// the current clock.
func (e *Engine) Vacuum(beforeTT temporal.Instant) (int, error) {
	if beforeTT > e.clock.Now() {
		return 0, atom.ErrVacuumFuture
	}
	tx, err := e.Begin()
	if err != nil {
		return 0, err
	}
	removed, err := e.atoms.Vacuum(beforeTT)
	if err != nil {
		_ = tx.Abort()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return removed, nil
}

// Compact coalesces adjacent equal-valued history steps whose transaction
// intervals closed before beforeTT and whose valid intervals abut — stage
// one of the tiering pipeline. Every query at tt >= beforeTT answers
// identically afterwards. Returns the number of version pairs merged.
func (e *Engine) Compact(beforeTT temporal.Instant) (int, error) {
	if beforeTT > e.clock.Now() {
		return 0, atom.ErrVacuumFuture
	}
	tx, err := e.Begin()
	if err != nil {
		return 0, err
	}
	merged, err := e.atoms.Compact(beforeTT)
	if err != nil {
		_ = tx.Abort()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return merged, nil
}

// ArchiveResult reports what one tiering run moved.
type ArchiveResult struct {
	Compacted int // version pairs coalesced (stage one)
	Archived  int // versions/snapshots migrated to the cold archive (stage two)
}

// Archive runs the full tiering pipeline in one transaction: compact the
// history below beforeTT, then migrate transaction-closed versions older
// than that watermark into the cold archive, leaving a per-atom archive
// pointer in the hot store. Queries at tt >= beforeTT answer byte-
// identically; deeper ASOF reads transparently chain into the archive.
// The cut-over is WAL-logged record by record, so a crash at any point
// replays to a consistent state; on abort the archive's append frontier
// rolls back and the staged bytes are overwritten by the next run.
func (e *Engine) Archive(beforeTT temporal.Instant) (ArchiveResult, error) {
	var res ArchiveResult
	if beforeTT > e.clock.Now() {
		return res, atom.ErrVacuumFuture
	}
	tx, err := e.Begin()
	if err != nil {
		return res, err
	}
	size0 := e.arc.Size()
	res.Compacted, err = e.atoms.Compact(beforeTT)
	if err == nil {
		res.Archived, err = e.atoms.ArchiveOlderThan(beforeTT)
	}
	if err != nil {
		// Roll the staged archive bytes back while the writer lock is still
		// held (Abort releases it): the frontier retreat and the heap undo
		// must be observed together.
		e.arc.SetSize(size0)
		_ = tx.Abort()
		return ArchiveResult{}, err
	}
	if err := tx.Commit(); err != nil {
		e.arc.SetSize(size0)
		return ArchiveResult{}, err
	}
	return res, nil
}

// ArchiveStore exposes the cold archive (statistics, replication, tooling).
func (e *Engine) ArchiveStore() *storage.Archive { return e.arc }

// Query runs a TMQL statement. Queries without an AT clause slice at the
// engine clock's current instant. Each run is timed into the query.ns
// histogram and offered to the slow-query log.
func (e *Engine) Query(src string) (*query.Result, error) {
	return e.QueryCtx(context.Background(), src)
}

// QueryCtx runs a TMQL statement under ctx: cancellation or deadline
// expiry stops execution at the next operator-loop boundary and returns
// the context's error.
func (e *Engine) QueryCtx(ctx context.Context, src string) (*query.Result, error) {
	return e.QueryWith(ctx, src, QueryOptions{})
}

// QueryOptions carry per-call session state for QueryWith. The zero value
// reproduces Query's behaviour exactly.
type QueryOptions struct {
	// VT overrides the default valid-time slice point for queries without
	// an AT clause (nil = the engine clock's now).
	VT *temporal.Instant
	// TT overrides the default transaction time for queries without an
	// ASOF clause (nil = the latest recorded state). A server session
	// pins this to realize repeatable reads across a conversation.
	TT *temporal.Instant
	// SlowThreshold force-records the query into the slow log when its
	// duration meets it, independent of the engine-wide threshold
	// (0 = engine threshold only). Per-session knob of the query server.
	SlowThreshold time.Duration
	// Trace is the distributed trace id this query runs under; 0 asks the
	// engine to allocate one when tracing is enabled. Parent is the span
	// the engine's exec span attaches to (the server's root query span;
	// 0 = the exec span is the trace root).
	Trace  uint64
	Parent uint64
}

// QueryWith runs a TMQL statement under ctx with explicit session
// defaults. Each run is timed into the query.ns histogram and offered to
// the slow-query log.
func (e *Engine) QueryWith(ctx context.Context, src string, opts QueryOptions) (*query.Result, error) {
	trace := opts.Trace
	if trace == 0 {
		trace = e.tracer.NextTraceID() // nil-safe: 0 when tracing is off
	}
	exec := e.tracer.StartSpan(trace, opts.Parent, "exec")

	e.mu.RLock()
	def := query.Defaults{VT: e.clock.Now(), Trace: trace, Span: exec.ID()}
	if opts.VT != nil {
		def.VT = *opts.VT
	}
	if opts.TT != nil {
		def.TT = *opts.TT
	}
	start := time.Now()
	res, err := e.queries.RunCtx(ctx, src, def)
	dur := time.Since(start)
	e.mu.RUnlock()

	e.queryRuns.Inc()
	e.queryNS.Observe(dur)
	if err != nil {
		exec.End("error: " + err.Error())
		return res, err
	}
	rows := len(res.Rows) + len(res.Molecules)
	exec.Account(res.Res)
	exec.End(fmt.Sprintf("rows=%d", rows))
	recorded := e.slow.Observe(src, dur, rows, res.Plan, trace)
	if !recorded && opts.SlowThreshold > 0 && dur >= opts.SlowThreshold {
		e.slow.Record(src, dur, rows, res.Plan, trace)
		recorded = true
	}
	if recorded {
		e.tracer.Point(trace, "slow-query", fmt.Sprintf("dur=%s rows=%d", dur, rows))
	}
	return res, err
}

// SetQueryWorkers adjusts intra-query parallelism at runtime (the ncores
// sweep in tcobench re-runs one workload across worker counts without
// rebuilding the database). n <= 1 forces the exact serial path. Takes the
// writer lock so in-flight queries never observe the change mid-run.
func (e *Engine) SetQueryWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries.Workers = n
}

// IDs lists the atoms of a type.
func (e *Engine) IDs(typeName string) ([]value.ID, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.atoms.IDs(typeName)
}

// Stats aggregates engine statistics.
type Stats struct {
	Atoms        int
	Pool         storage.PoolStats
	AtomLayer    atom.Stats
	LogBytes     int64
	DevicePags   storage.PageID
	ArchiveBytes uint64
}

// Stats returns a snapshot of engine statistics.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := Stats{
		Atoms:        e.atoms.Count(),
		Pool:         e.pool.Stats(),
		AtomLayer:    e.atoms.Stats(),
		DevicePags:   e.dev.NumPages(),
		ArchiveBytes: e.arc.Size(),
	}
	if e.log != nil {
		s.LogBytes = e.log.Size()
	}
	return s
}

// Metrics exposes the engine-wide metric registry.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// SlowLog exposes the slow-query log (never nil; threshold 0 = disabled).
func (e *Engine) SlowLog() *obs.SlowLog { return e.slow }

// Tracer exposes the engine event ring.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// RecoveryStats returns the WAL replay statistics from this open. All
// zeros when the previous shutdown was clean (check Recovered).
func (e *Engine) RecoveryStats() wal.RecoveryStats { return e.recovery }

// CounterSnapshot returns every registered counter by name.
func (e *Engine) CounterSnapshot() map[string]uint64 { return e.metrics.Counters() }

// PublishDebugVars exposes this engine's metric snapshot through the
// expvar endpoint (`/debug/vars`, key "tcodm"). Only one engine per
// process can be published at a time; pass through obs.SetDebugVars(nil)
// semantics by calling with a closed engine is not needed — the snapshot
// function only touches the registry, which outlives Close.
func (e *Engine) PublishDebugVars() {
	obs.SetMetricsSource(e.metrics)
	obs.SetTraceSource(e.tracer)
	obs.SetDebugVars(func() any {
		snap := e.metrics.Snapshot()
		snap["slowlog"] = map[string]any{
			"total":     e.slow.Total(),
			"threshold": e.slow.Threshold().String(),
		}
		snap["recovery"] = e.recovery
		return snap
	})
}

// interface assertions
var _ storage.RedoLogger = (*wal.WAL)(nil)
var _ atom.IndexUndo = (*txn.Txn)(nil)
