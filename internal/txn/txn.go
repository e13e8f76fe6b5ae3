// Package txn implements the transaction layer: single-writer transactions
// that assign transaction-time instants from a monotone clock, buffer redo
// records in the write-ahead log, restore the heap's before-images on
// abort, and enforce the no-steal protocol on the buffer pool. The caller
// serializes writers (the engine's lock); Begin refuses a second one.
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
// commitNS covers the WAL append and the wait for durability on logged
// databases. Unlogged transactions touch no clock at all.
type txnMetrics struct {
	commits  *obs.Counter
	aborts   *obs.Counter
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

	lsn   uint64    // commit LSN, set by Commit
	start time.Time // when Commit began, for commitNS (zero = untimed)
}

// RecordIndexUndo implements atom.IndexUndo: it collects inverse index
// operations to run if the transaction aborts.
func (t *Txn) RecordIndexUndo(fn func() error) {
	t.idxUndo = append(t.idxUndo, fn)
}

// Begin starts a write transaction. The caller serializes writers; Begin
// fails while another transaction is active. The returned transaction's
// TT is a fresh clock tick, strictly greater than every previously
// assigned instant.
func (m *Manager) Begin() (*Txn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active != nil {
		return nil, fmt.Errorf("txn: transaction %d still active", m.active.ID)
	}
	if m.log != nil {
		if err := m.log.BeginTxn(m.nextTxn); err != nil {
			return nil, err
		}
	}
	t := &Txn{ID: m.nextTxn, mgr: m}
	m.nextTxn++
	t.TT = m.clock.Tick()
	m.heap.SetTxnActive(true)
	m.pool.BeginTxn()
	m.active = t
	return t, nil
}

// Commit appends the transaction's records and commit marker to the log,
// ends the transaction and returns the commit LSN (0 when unlogged). The
// effects are durable once WaitDurable returns. If the append fails the
// transaction stays active, for the caller to Abort.
func (t *Txn) Commit() (uint64, error) {
	if t.done {
		return 0, fmt.Errorf("txn: transaction %d already finished", t.ID)
	}
	m := t.mgr
	// commitNS covers the durability work (WAL append and the wait for its
	// sync); an unlogged commit has no I/O worth timing, so it stays
	// clock-free.
	if m.log != nil && m.met.commitNS != nil {
		t.start = time.Now()
	}
	if m.log != nil {
		lsn, err := m.log.Commit()
		if err != nil {
			return 0, err
		}
		t.lsn = lsn
	}
	t.finish(true)
	return t.lsn, nil
}

// WaitDurable returns once the committed transaction is durable (to the
// degree the WAL options promise), or the log's ErrLogFailed. It needs no
// lock: writers may begin while earlier commits wait here.
func (t *Txn) WaitDurable() error {
	m := t.mgr
	if m.log == nil {
		return nil
	}
	err := m.log.WaitDurable(t.lsn)
	if !t.start.IsZero() {
		m.met.commitNS.Observe(time.Since(t.start))
	}
	return err
}

// Abort rolls the transaction's effects back in memory — every heap page it
// changed returns to its exact image from before Begin — and ends it. Nothing of the transaction reaches the log or (thanks to
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
}

// Checkpoint flushes every dirty page, syncs the device, and truncates the
// log. Must not run inside a write transaction; the caller keeps writers
// out until it returns.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	if m.active != nil {
		m.mu.Unlock()
		return fmt.Errorf("txn: checkpoint during active transaction")
	}
	m.mu.Unlock()
	if err := m.pool.FlushAll(); err != nil {
		return err
	}
	if m.log != nil {
		return m.log.Checkpoint()
	}
	return nil
}
