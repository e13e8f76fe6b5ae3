package storage

import (
	"bytes"
	"container/list"
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

// BufferPool caches pages of a Device with LRU replacement, pin counting,
// and a no-steal policy for pages dirtied by the active transaction.
type BufferPool struct {
	mu       sync.Mutex
	dev      Device
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // front = most recently used; holds *frame
	free     []*Page    // recycled page buffers
	onFlush  FlushHook
	met      poolMetrics

	// freeList tracks deallocated device pages available for reuse.
	freeList []PageID
	// deferFrees quarantines deallocations made by the active transaction
	// in pendingFree instead of freeList: their on-device content may still
	// be referenced by committed records (e.g. the old overflow chain of an
	// updated record), so handing them back to Allocate before the
	// transaction's outcome is known would let a force-flushed reuse
	// clobber committed data that a crash-abort still needs.
	deferFrees  bool
	pendingFree []PageID
}

type frame struct {
	page *Page
	elem *list.Element
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
		frames:   make(map[PageID]*frame, capacity),
		lru:      list.New(),
		met:      standalonePoolMetrics(),
	}
}

// SetFlushHook installs the WAL-rule hook. Must be called before use.
func (bp *BufferPool) SetFlushHook(h FlushHook) { bp.onFlush = h }

// Stats returns a snapshot of the activity counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	pinned := 0
	for _, fr := range bp.frames {
		if fr.page.pin > 0 {
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

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Fetch pins and returns the page. Callers must Unpin it when done.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr, ok := bp.frames[id]; ok {
		bp.met.hits.Inc()
		fr.page.pin++
		bp.lru.MoveToFront(fr.elem)
		return fr.page, nil
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
	p.pin = 1
	return p, nil
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
	p, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	for i := range p.data {
		p.data[i] = 0
	}
	p.pin = 1
	p.dirty = true
	return p, nil
}

// Deallocate returns a page to the free list for reuse. The page must be
// unpinned. Its buffered contents are dropped.
func (bp *BufferPool) Deallocate(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr, ok := bp.frames[id]; ok {
		if fr.page.pin > 0 {
			return fmt.Errorf("storage: deallocating pinned page %d", id)
		}
		bp.lru.Remove(fr.elem)
		bp.recyclePage(fr.page)
		delete(bp.frames, id)
	}
	if bp.deferFrees {
		bp.pendingFree = append(bp.pendingFree, id)
	} else {
		bp.freeList = append(bp.freeList, id)
	}
	return nil
}

// Unpin releases one pin on the page.
func (bp *BufferPool) Unpin(p *Page) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if p.pin <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", p.id))
	}
	p.pin--
}

// FlushPage writes one page (if buffered and dirty) to the device and
// syncs. Used to persist the meta page's dirty mark eagerly.
func (bp *BufferPool) FlushPage(id PageID) error {
	bp.mu.Lock()
	fr, ok := bp.frames[id]
	if ok {
		if err := bp.flushFrameLocked(fr.page); err != nil {
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
		fr := bp.frames[id]
		if err := bp.flushFrameLocked(fr.page); err != nil {
			return err
		}
		fr.page.txnDirty = false
	}
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
// quarantined deallocations join the free list; on abort they are leaked
// instead — the restored before-images may still reference their on-device
// content, so they must never be reused.
func (bp *BufferPool) EndTxn(committed bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.frames {
		fr.page.txnDirty = false
	}
	if committed {
		bp.freeList = append(bp.freeList, bp.pendingFree...)
	}
	bp.pendingFree = nil
	bp.deferFrees = false
}

// DirtyPages returns the number of dirty pages currently buffered.
func (bp *BufferPool) DirtyPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, fr := range bp.frames {
		if fr.page.dirty {
			n++
		}
	}
	return n
}

// allocFrameLocked obtains a frame for page id, evicting if necessary.
func (bp *BufferPool) allocFrameLocked(id PageID) (*Page, error) {
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictLocked(); err != nil {
			return nil, err
		}
	}
	var p *Page
	if n := len(bp.free); n > 0 {
		p = bp.free[n-1]
		bp.free = bp.free[:n-1]
	} else {
		p = &Page{}
	}
	p.id = id
	p.pin = 0
	p.dirty = false
	p.txnDirty = false
	fr := &frame{page: p}
	fr.elem = bp.lru.PushFront(fr)
	bp.frames[id] = fr
	return p, nil
}

func (bp *BufferPool) releaseFrameLocked(id PageID) {
	if fr, ok := bp.frames[id]; ok {
		bp.lru.Remove(fr.elem)
		bp.recyclePage(fr.page)
		delete(bp.frames, id)
	}
}

func (bp *BufferPool) recyclePage(p *Page) {
	if len(bp.free) < bp.capacity {
		bp.free = append(bp.free, p)
	}
}

// evictLocked removes the least recently used unpinned, non-txn-dirty page.
func (bp *BufferPool) evictLocked() error {
	start := time.Time{}
	if bp.met.evictNS != nil {
		start = time.Now()
	}
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		fr := e.Value.(*frame)
		if fr.page.pin > 0 || fr.page.txnDirty {
			continue
		}
		if err := bp.flushFrameLocked(fr.page); err != nil {
			return err
		}
		bp.lru.Remove(e)
		delete(bp.frames, fr.page.id)
		bp.recyclePage(fr.page)
		bp.met.evictions.Inc()
		if !start.IsZero() {
			bp.met.evictNS.Observe(time.Since(start))
		}
		return nil
	}
	return fmt.Errorf("storage: buffer pool exhausted: all %d pages pinned or transaction-dirty", bp.capacity)
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
	p := (*Page)(nil)
	if fr, ok := bp.frames[id]; ok {
		p = fr.page
	} else {
		var err error
		p, err = bp.allocFrameLocked(id)
		if err != nil {
			return err
		}
	}
	for i := range p.data {
		p.data[i] = 0
	}
	p.SetType(PageFree)
	p.dirty = true
	return nil
}

// FreePages returns a copy of the device free list (for persistence).
func (bp *BufferPool) FreePages() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return append([]PageID(nil), bp.freeList...)
}

// SetFreePages installs the free list (on open, from the meta page).
func (bp *BufferPool) SetFreePages(ids []PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.freeList = append([]PageID(nil), ids...)
}
