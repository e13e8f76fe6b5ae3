package storage

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"tcodm/internal/obs"
)

// FlushHook is invoked before a dirty page with the given LSN is written to
// the device; the write-ahead-log uses it to enforce the WAL rule (log
// records up to the page's LSN must be durable before the page is).
type FlushHook func(pageLSN uint64) error

// PoolStats reports buffer pool activity counters. It is a point-in-time
// view over the pool's obs metrics (see poolMetrics), kept for callers that
// predate the observability layer.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
	// Pinned is the number of frames pinned right now. Every pin belongs to
	// a call in progress, so it reads 0 whenever the pool is idle.
	Pinned int
}

// HitRatio returns the fraction of fetches served from the pool.
func (s PoolStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// BufferPool caches pages of a Device with clock (second-chance)
// replacement, atomic pin counts, and a no-steal policy for pages dirtied by
// the active transaction.
//
// A hit takes the page table's lock shared, pins the page with an atomic add
// and sets its reference bit, so hits run side by side and move nothing. A
// miss, an allocation, a deallocation, an eviction and a flush take the lock
// exclusively. Pinning needs the lock and unpinning does not, so a page the
// exclusive holder sees unpinned stays unpinned until it lets go.
type BufferPool struct {
	mu       sync.RWMutex
	dev      Device
	capacity int
	frames   map[PageID]*Page // the page table: every resident page by id
	// ring holds every frame in clock order. It grows to capacity, and
	// after that only what its frames hold changes. hand is the sweep's next
	// candidate; idle lists the ring's frames that hold no page.
	ring []*Page
	hand int
	idle []*Page
	// txnPages lists the pages the active transaction marked txn-dirty, so
	// ending it costs the pages it touched, not the pages the pool holds.
	txnPages []*Page
	onFlush  FlushHook
	met      poolMetrics

	// freeList holds the device pages available for reuse: those
	// Heap.Rebuild derived at open, then those deallocated since.
	freeList []PageID
	// deferFrees quarantines deallocations made by the active transaction
	// in pendingFree instead of freeList: their content may still be
	// referenced by committed records (e.g. the old overflow chain of an
	// updated record), so handing them back to Allocate before the
	// transaction's outcome is known would let a reuse clobber committed
	// data that an abort still needs.
	deferFrees  bool
	pendingFree []PageID
}

// poolMetrics holds the pool's instrumentation handles. By default they are
// standalone obs counters (counting, but exported nowhere); SetMetrics
// rebinds them to a registry, or to nil handles for true no-op mode. The
// hot path (cache hit) touches only one counter; latency histograms sit on
// the slow paths (device read, flush, evict) where a time.Now() pair is
// noise relative to the I/O.
type poolMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	flushes   *obs.Counter
	readNS    *obs.Histogram // device read latency on a miss
	flushNS   *obs.Histogram // page write-out latency (incl. WAL-rule sync)
	evictNS   *obs.Histogram // victim selection + flush on eviction
}

func standalonePoolMetrics() poolMetrics {
	return poolMetrics{
		hits:      obs.NewCounter(),
		misses:    obs.NewCounter(),
		evictions: obs.NewCounter(),
		flushes:   obs.NewCounter(),
		readNS:    obs.NewHistogram(),
		flushNS:   obs.NewHistogram(),
		evictNS:   obs.NewHistogram(),
	}
}

// SetMetrics binds the pool's instrumentation to reg under "pool.*" names.
// A nil registry disables instrumentation entirely (nil no-op handles).
func (bp *BufferPool) SetMetrics(reg *obs.Registry) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if reg == nil {
		bp.met = poolMetrics{}
		return
	}
	bp.met = poolMetrics{
		hits:      reg.Counter("pool.hits"),
		misses:    reg.Counter("pool.misses"),
		evictions: reg.Counter("pool.evictions"),
		flushes:   reg.Counter("pool.flushes"),
		readNS:    reg.Histogram("pool.read_ns"),
		flushNS:   reg.Histogram("pool.flush_ns"),
		evictNS:   reg.Histogram("pool.evict_ns"),
	}
}

// NewBufferPool creates a pool of the given capacity (in pages) over dev.
func NewBufferPool(dev Device, capacity int) *BufferPool {
	if capacity < 4 {
		capacity = 4
	}
	return &BufferPool{
		dev:      dev,
		capacity: capacity,
		frames:   make(map[PageID]*Page, capacity),
		met:      standalonePoolMetrics(),
	}
}

// SetFlushHook installs the WAL-rule hook. Must be called before use.
func (bp *BufferPool) SetFlushHook(h FlushHook) { bp.onFlush = h }

// Stats returns a snapshot of the activity counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.mu.RLock()
	defer bp.mu.RUnlock()
	pinned := 0
	for _, p := range bp.frames {
		if p.pin.Load() > 0 {
			pinned++
		}
	}
	return PoolStats{
		Hits:      bp.met.hits.Value(),
		Misses:    bp.met.misses.Value(),
		Evictions: bp.met.evictions.Value(),
		Flushes:   bp.met.flushes.Value(),
		Pinned:    pinned,
	}
}

// Fetch pins and returns the page. Callers must Unpin it when done.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.RLock()
	p, ok := bp.frames[id]
	if ok {
		bp.hit(p)
	}
	bp.mu.RUnlock()
	if ok {
		return p, nil
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if p, ok := bp.frames[id]; ok { // loaded by another caller meanwhile
		bp.hit(p)
		return p, nil
	}
	bp.met.misses.Inc()
	p, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	readStart := time.Time{}
	if bp.met.readNS != nil {
		readStart = time.Now()
	}
	if err := bp.dev.ReadPage(id, p.data[:]); err != nil {
		bp.releaseFrameLocked(id)
		return nil, err
	}
	if !readStart.IsZero() {
		bp.met.readNS.Observe(time.Since(readStart))
	}
	if err := verifyChecksum(id, p.data[:]); err != nil {
		bp.releaseFrameLocked(id)
		return nil, err
	}
	p.pin.Store(1)
	return p, nil
}

// hit pins a resident page and gives it a second chance against the clock.
// The caller holds mu, shared or exclusive. The reference bit is written
// only when clear, so hits on a hot page do not keep taking its cache line.
func (bp *BufferPool) hit(p *Page) {
	bp.met.hits.Inc()
	p.pin.Add(1)
	if !p.ref.Load() {
		p.ref.Store(true)
	}
}

// Allocate pins and returns a brand-new page appended to the device (or
// recycled from the free list). The page is zeroed and marked dirty so it
// reaches the device even if untouched.
func (bp *BufferPool) Allocate() (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var id PageID
	if n := len(bp.freeList); n > 0 {
		id = bp.freeList[n-1]
		bp.freeList = bp.freeList[:n-1]
	} else {
		id = bp.dev.NumPages()
		// Materialize the page on the device immediately so the device
		// never has holes, even if this page is evicted before first flush.
		var zero [PageSize]byte
		if err := bp.dev.WritePage(id, zero[:]); err != nil {
			return nil, err
		}
	}
	// A free page may still be resident (Rebuild read it). Take its frame:
	// evicting a stale second frame would unmap the live one.
	p, ok := bp.frames[id]
	if !ok {
		var err error
		if p, err = bp.allocFrameLocked(id); err != nil {
			return nil, err
		}
	}
	clear(p.data[:])
	p.pin.Store(1)
	p.dirty = true
	return p, nil
}

// Grow extends the device with zeroed pages until page id exists. Redo
// uses it to reach pages the log names past the device end; it allocates
// nothing else.
func (bp *BufferPool) Grow(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var zero [PageSize]byte
	for n := bp.dev.NumPages(); n <= id; n++ {
		if err := bp.dev.WritePage(n, zero[:]); err != nil {
			return err
		}
	}
	return nil
}

// Deallocate returns a page to the free list for reuse. The page must be
// unpinned. Its buffered contents are dropped — for a page the active
// transaction frees, only once the transaction commits (see EndTxn).
func (bp *BufferPool) Deallocate(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if p, ok := bp.frames[id]; ok && p.pin.Load() > 0 {
		return fmt.Errorf("storage: deallocating pinned page %d", id)
	}
	if bp.deferFrees {
		bp.pendingFree = append(bp.pendingFree, id)
		return nil
	}
	bp.releaseFrameLocked(id)
	bp.freeList = append(bp.freeList, id)
	return nil
}

// Unpin releases one pin on the page. It takes no lock.
func (bp *BufferPool) Unpin(p *Page) {
	if p.pin.Add(-1) < 0 {
		p.pin.Add(1)
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", p.id))
	}
}

// markTxnDirty flags p as changed by the active transaction: dirty, and
// unevictable until EndTxn (no-steal). The caller holds a pin on p and is
// the transaction's writer, the only goroutine that sets the mark.
func (bp *BufferPool) markTxnDirty(p *Page) {
	p.dirty = true
	if p.txnDirty {
		return
	}
	bp.mu.Lock()
	p.txnDirty = true
	bp.txnPages = append(bp.txnPages, p)
	bp.mu.Unlock()
}

// FlushPage writes one page (if buffered and dirty) to the device and
// syncs. Used to persist the meta page's dirty mark eagerly.
func (bp *BufferPool) FlushPage(id PageID) error {
	bp.mu.Lock()
	if p, ok := bp.frames[id]; ok {
		if err := bp.flushFrameLocked(p); err != nil {
			bp.mu.Unlock()
			return err
		}
	}
	bp.mu.Unlock()
	return bp.dev.Sync()
}

// FlushAll writes every dirty page to the device and syncs it. Transaction-
// dirty pages are flushed too — callers must only checkpoint at transaction
// boundaries. Pages are written in ascending ID order so a given workload
// produces one reproducible I/O sequence (fault injection counts on this).
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	ids := make([]PageID, 0, len(bp.frames))
	for id := range bp.frames {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// The meta page goes last: its magic is what marks the database as born,
	// so on the very first flush every other page must precede it — a crash
	// mid-flush then leaves a recognizably half-born file (zero page 0)
	// rather than a meta page pointing at pages that never landed.
	if len(ids) > 0 && ids[0] == 0 {
		ids = append(ids[1:], 0)
	}
	for _, id := range ids {
		if err := bp.flushFrameLocked(bp.frames[id]); err != nil {
			return err
		}
	}
	bp.clearTxnLocked()
	return bp.dev.Sync()
}

// BeginTxn enters transaction mode for deallocations: pages freed while it
// is in effect are quarantined until EndTxn decides their fate.
func (bp *BufferPool) BeginTxn() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.deferFrees = true
}

// EndTxn clears the no-steal marks after the active transaction commits or
// aborts, making its pages evictable again. On commit the transaction's
// quarantined deallocations drop their frames and join the free list; on
// abort they are leaked instead, frames and all — the restored
// before-images still reference their content, so they must never be
// reused.
func (bp *BufferPool) EndTxn(committed bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.clearTxnLocked()
	if committed {
		for _, id := range bp.pendingFree {
			bp.releaseFrameLocked(id)
		}
		bp.freeList = append(bp.freeList, bp.pendingFree...)
	}
	bp.pendingFree = nil
	bp.deferFrees = false
}

// clearTxnLocked lifts the no-steal mark from the pages the transaction
// marked, and from those alone.
func (bp *BufferPool) clearTxnLocked() {
	for _, p := range bp.txnPages {
		p.txnDirty = false
	}
	bp.txnPages = bp.txnPages[:0]
}

// DirtyPages returns the number of dirty pages currently buffered.
func (bp *BufferPool) DirtyPages() int {
	bp.mu.RLock()
	defer bp.mu.RUnlock()
	n := 0
	for _, p := range bp.frames {
		if p.dirty {
			n++
		}
	}
	return n
}

// allocFrameLocked obtains a frame for page id: an idle one, a new one while
// the ring is short of capacity, else the clock's victim.
func (bp *BufferPool) allocFrameLocked(id PageID) (*Page, error) {
	var p *Page
	switch n := len(bp.idle); {
	case n > 0:
		p, bp.idle = bp.idle[n-1], bp.idle[:n-1]
	case len(bp.ring) < bp.capacity:
		p = &Page{}
		bp.ring = append(bp.ring, p)
	default:
		var err error
		if p, err = bp.evictLocked(); err != nil {
			return nil, err
		}
	}
	p.id = id
	p.pin.Store(0)
	p.ref.Store(false)
	p.dirty = false
	p.txnDirty = false
	bp.frames[id] = p
	return p, nil
}

// releaseFrameLocked drops page id from the pool; its frame goes idle.
func (bp *BufferPool) releaseFrameLocked(id PageID) {
	if p, ok := bp.frames[id]; ok {
		delete(bp.frames, id)
		bp.idle = append(bp.idle, p)
	}
}

// evictLocked frees a frame by the clock and returns it. The hand passes
// over pinned and txn-dirty pages, clears the reference bit of a page that
// has it set (its second chance), and takes the first page whose bit was
// already clear. Every frame holds a page here, so two turns of the hand
// reach any candidate with its bit cleared.
func (bp *BufferPool) evictLocked() (*Page, error) {
	start := time.Time{}
	if bp.met.evictNS != nil {
		start = time.Now()
	}
	for range 2 * len(bp.ring) {
		p := bp.ring[bp.hand]
		bp.hand = (bp.hand + 1) % len(bp.ring)
		if p.pin.Load() > 0 || p.txnDirty {
			continue
		}
		if p.ref.Load() {
			p.ref.Store(false)
			continue
		}
		if err := bp.flushFrameLocked(p); err != nil {
			return nil, err
		}
		delete(bp.frames, p.id)
		bp.met.evictions.Inc()
		if !start.IsZero() {
			bp.met.evictNS.Observe(time.Since(start))
		}
		return p, nil
	}
	return nil, fmt.Errorf("storage: buffer pool exhausted: all %d pages pinned or transaction-dirty", bp.capacity)
}

func (bp *BufferPool) flushFrameLocked(p *Page) error {
	if !p.dirty {
		return nil
	}
	start := time.Time{}
	if bp.met.flushNS != nil {
		start = time.Now()
	}
	if bp.onFlush != nil {
		if err := bp.onFlush(p.LSN()); err != nil {
			return err
		}
	}
	stampChecksum(p.data[:])
	if err := bp.dev.WritePage(p.id, p.data[:]); err != nil {
		return err
	}
	p.dirty = false
	bp.met.flushes.Inc()
	if !start.IsZero() {
		bp.met.flushNS.Observe(time.Since(start))
	}
	return nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pageChecksum computes the 24-bit CRC-32C of the page with the checksum
// bytes zeroed.
func pageChecksum(data []byte) uint32 {
	var save [3]byte
	copy(save[:], data[checksumOff:checksumOff+3])
	data[checksumOff], data[checksumOff+1], data[checksumOff+2] = 0, 0, 0
	sum := crc32.Checksum(data, crcTable) & 0xFFFFFF
	copy(data[checksumOff:], save[:])
	return sum
}

func stampChecksum(data []byte) {
	sum := pageChecksum(data)
	data[checksumOff] = byte(sum)
	data[checksumOff+1] = byte(sum >> 8)
	data[checksumOff+2] = byte(sum >> 16)
}

// verifyChecksum reports corruption in a page read from the device. Pages
// that are entirely zero are accepted: they are freshly allocated slots a
// crash abandoned before their first flush.
func verifyChecksum(id PageID, data []byte) error {
	stored := uint32(data[checksumOff]) | uint32(data[checksumOff+1])<<8 | uint32(data[checksumOff+2])<<16
	if pageChecksum(data) == stored {
		return nil
	}
	if isZeroPage(data) {
		return nil
	}
	return fmt.Errorf("storage: checksum mismatch on page %d (corruption or torn write)", id)
}

var zeroChunk [256]byte

func isZeroPage(data []byte) bool {
	for off := 0; off < len(data); off += len(zeroChunk) {
		end := off + len(zeroChunk)
		if end > len(data) {
			end = len(data)
		}
		if !bytes.Equal(data[off:end], zeroChunk[:end-off]) {
			return false
		}
	}
	return true
}

// VerifyPageChecksum reports whether a raw page image read off the device
// is intact: checksum-valid or entirely zero (a freshly allocated slot a
// crash abandoned before its first flush). Recovery uses it to sweep the
// device for torn writes without routing the damage through the pool.
func VerifyPageChecksum(id PageID, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: verify buffer has %d bytes, want %d", len(data), PageSize)
	}
	return verifyChecksum(id, data)
}

// ZapPage replaces a page with a zeroed free page in the pool, without
// reading it from the device (it may be torn beyond checksum validity).
// Recovery quarantines checksum-invalid pages born after the crash horizon
// this way: their committed content, if any, is reconstructed from the log.
func (bp *BufferPool) ZapPage(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if id >= bp.dev.NumPages() {
		return fmt.Errorf("storage: zap of page %d beyond device end %d", id, bp.dev.NumPages())
	}
	p, ok := bp.frames[id]
	if !ok {
		var err error
		if p, err = bp.allocFrameLocked(id); err != nil {
			return err
		}
	}
	clear(p.data[:])
	p.SetType(PageFree)
	p.dirty = true
	return nil
}

// FreePages returns a copy of the device free list: the pages Heap.Rebuild
// derived at open, plus those deallocated since. It is never persisted.
func (bp *BufferPool) FreePages() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return append([]PageID(nil), bp.freeList...)
}
