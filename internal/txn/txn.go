// Package txn implements the transaction layer: single-writer transactions
// that assign transaction-time instants from a monotone clock, buffer redo
// records in the write-ahead log, restore the heap's before-images on
// abort, and enforce the no-steal protocol on the buffer pool.
package txn

import (
	"fmt"
	"sync"
	"time"

	"tcodm/internal/obs"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/wal"
)

// Manager coordinates transactions over one database's heap, pool, clock,
// and (optional) log.
type Manager struct {
	writeMu sync.Mutex // held by the active write transaction

	mu      sync.Mutex
	clock   *temporal.Clock
	log     *wal.WAL // nil = unlogged database
	heap    *storage.Heap
	pool    *storage.BufferPool
	nextTxn uint64
	active  *Txn
	commits uint64
	aborts  uint64

	met txnMetrics
}

// txnMetrics holds the transaction layer's instrumentation (nil = no-op).
// beginNS records only contended Begins (time spent queued for the writer
// slot); commitNS covers the WAL append + optional fsync on logged
// databases. Uncontended unlogged transactions touch no clock at all.
type txnMetrics struct {
	commits  *obs.Counter
	aborts   *obs.Counter
	beginNS  *obs.Histogram
	commitNS *obs.Histogram
	abortNS  *obs.Histogram
}

// SetMetrics binds the layer's instrumentation to reg under "txn.*" names.
// A nil registry disables instrumentation (the default).
func (m *Manager) SetMetrics(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg == nil {
		m.met = txnMetrics{}
		return
	}
	m.met = txnMetrics{
		commits:  reg.Counter("txn.commits"),
		aborts:   reg.Counter("txn.aborts"),
		beginNS:  reg.Histogram("txn.begin_ns"),
		commitNS: reg.Histogram("txn.commit_ns"),
		abortNS:  reg.Histogram("txn.abort_ns"),
	}
}

// NewManager wires the transaction layer. log may be nil for unlogged
// (ephemeral or bulk-load) operation.
func NewManager(clock *temporal.Clock, log *wal.WAL, heap *storage.Heap, pool *storage.BufferPool) *Manager {
	return &Manager{clock: clock, log: log, heap: heap, pool: pool, nextTxn: 1}
}

// Clock exposes the transaction-time clock (reads use Now()).
func (m *Manager) Clock() *temporal.Clock { return m.clock }

// Stats returns (commits, aborts).
func (m *Manager) Stats() (commits, aborts uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits, m.aborts
}

// Txn is one write transaction. All mutations performed between Begin and
// Commit/Abort carry the transaction's TT instant and are atomic: they
// become durable together at Commit or vanish together at Abort.
type Txn struct {
	ID      uint64
	TT      temporal.Instant
	mgr     *Manager
	idxUndo []func() error
	done    bool
}

// RecordIndexUndo implements atom.IndexUndo: it collects inverse index
// operations to run if the transaction aborts.
func (t *Txn) RecordIndexUndo(fn func() error) {
	t.idxUndo = append(t.idxUndo, fn)
}

// Begin starts a write transaction, blocking until any current writer
// finishes. The returned transaction's TT is a fresh clock tick, strictly
// greater than every previously assigned instant.
func (m *Manager) Begin() (*Txn, error) {
	// Time the writer-slot wait only when there is one: the uncontended
	// path takes zero clock reads, and beginNS becomes a pure
	// lock-contention signal (how long writers queue behind each other).
	if !m.writeMu.TryLock() {
		start := time.Time{}
		if m.met.beginNS != nil {
			start = time.Now()
		}
		m.writeMu.Lock()
		if !start.IsZero() {
			m.met.beginNS.Observe(time.Since(start))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{ID: m.nextTxn, mgr: m}
	m.nextTxn++
	t.TT = m.clock.Tick()
	if m.log != nil {
		if err := m.log.BeginTxn(t.ID); err != nil {
			m.writeMu.Unlock()
			return nil, err
		}
	}
	m.heap.SetTxnActive(true)
	m.pool.BeginTxn()
	m.active = t
	return t, nil
}

// Commit makes the transaction's effects durable (to the degree the WAL
// options promise) and releases the writer slot.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("txn: transaction %d already finished", t.ID)
	}
	m := t.mgr
	// commitNS covers the durability work (WAL append + optional fsync);
	// an unlogged commit has no I/O worth timing, so it stays clock-free.
	start := time.Time{}
	if m.log != nil && m.met.commitNS != nil {
		start = time.Now()
	}
	if m.log != nil {
		if err := m.log.Commit(); err != nil {
			return err
		}
	}
	t.finish(true)
	if !start.IsZero() {
		m.met.commitNS.Observe(time.Since(start))
	}
	return nil
}

// Abort rolls the transaction's effects back in memory — every heap page it
// changed returns to its exact image from before Begin — and releases the
// writer slot. Nothing of the transaction reaches the log or (thanks to
// no-steal) the device.
func (t *Txn) Abort() error {
	if t.done {
		return fmt.Errorf("txn: transaction %d already finished", t.ID)
	}
	m := t.mgr
	start := time.Time{}
	if m.met.abortNS != nil {
		start = time.Now()
	}
	var firstErr error
	if err := m.heap.Rollback(); err != nil {
		firstErr = fmt.Errorf("txn: heap rollback failed: %w", err)
	}
	for i := len(t.idxUndo) - 1; i >= 0; i-- {
		if err := t.idxUndo[i](); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("txn: index undo failed: %w", err)
		}
	}
	if m.log != nil {
		m.log.Abort()
	}
	t.finish(false)
	if !start.IsZero() {
		m.met.abortNS.Observe(time.Since(start))
	}
	return firstErr
}

func (t *Txn) finish(committed bool) {
	m := t.mgr
	m.heap.SetTxnActive(false)
	m.pool.EndTxn(committed)
	m.mu.Lock()
	m.active = nil
	if committed {
		m.commits++
		m.met.commits.Inc()
	} else {
		m.aborts++
		m.met.aborts.Inc()
	}
	m.mu.Unlock()
	t.done = true
	m.writeMu.Unlock()
}

// Checkpoint flushes every dirty page, syncs the device, and truncates the
// log. Must not run inside a write transaction.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	if m.active != nil {
		m.mu.Unlock()
		return fmt.Errorf("txn: checkpoint during active transaction")
	}
	m.mu.Unlock()
	// Serialize with writers for the duration of the flush.
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if err := m.pool.FlushAll(); err != nil {
		return err
	}
	if m.log != nil {
		return m.log.Checkpoint()
	}
	return nil
}
