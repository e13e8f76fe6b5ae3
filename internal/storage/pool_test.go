package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.db")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "hello page zero")
	if err := d.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "hello page one!")
	if err := d.WritePage(1, buf); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != 2 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify.
	d2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 2 {
		t.Fatalf("reopened NumPages = %d", d2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := d2.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("hello page zero")) {
		t.Error("page 0 content lost")
	}
}

func TestFileDeviceRejectsHolesAndTornFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.db")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.WritePage(5, buf); err == nil {
		t.Error("write beyond end+1 should fail")
	}
	if err := d.ReadPage(0, buf); err == nil {
		t.Error("read beyond end should fail")
	}
	if err := d.ReadPage(0, buf[:10]); err == nil {
		t.Error("short buffer should fail")
	}
	d.Close()
	// Torn tail: a crash mid-grow leaves a partial page at the end. Opening
	// must truncate the fragment and keep every full page.
	full := make([]byte, PageSize)
	copy(full, "survivor")
	if err := os.WriteFile(path, append(append([]byte(nil), full...), make([]byte, 100)...), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if d2.NumPages() != 1 {
		t.Errorf("NumPages after tail truncation = %d, want 1", d2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := d2.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("survivor")) {
		t.Error("full page lost during tail truncation")
	}
	d2.Close()
	if info, err := os.Stat(path); err != nil || info.Size() != PageSize {
		t.Errorf("file not truncated to page boundary: size %d", info.Size())
	}
	// A file smaller than one page is not a database at all.
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDevice(path); err == nil {
		t.Error("sub-page file accepted")
	}
}

func TestMemDevice(t *testing.T) {
	d := NewMemDevice()
	buf := make([]byte, PageSize)
	copy(buf, "mem")
	if err := d.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("mem")) {
		t.Error("content lost")
	}
	if err := d.WritePage(7, buf); err == nil {
		t.Error("hole write accepted")
	}
	if err := d.ReadPage(3, got); err == nil {
		t.Error("out-of-range read accepted")
	}
}

func TestBufferPoolFetchAllocateUnpin(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 8)
	p, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID()
	copy(p.Data()[100:], "payload")
	p.MarkDirty()
	bp.Unpin(p)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Refetch: must hit the pool.
	before := bp.Stats()
	p2, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(p2.Data()[100:], []byte("payload")) {
		t.Error("content lost across flush")
	}
	bp.Unpin(p2)
	after := bp.Stats()
	if after.Hits != before.Hits+1 {
		t.Errorf("expected a pool hit, stats %+v -> %+v", before, after)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	// Create 8 pages through a pool of 4: evictions must occur and all
	// content must survive on the device.
	var ids []PageID
	for i := 0; i < 8; i++ {
		p, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Data()[200] = byte(i)
		p.MarkDirty()
		ids = append(ids, p.ID())
		bp.Unpin(p)
	}
	if bp.Stats().Evictions == 0 {
		t.Error("no evictions with pool smaller than working set")
	}
	for i, id := range ids {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Data()[200] != byte(i) {
			t.Errorf("page %d content lost through eviction", id)
		}
		bp.Unpin(p)
	}
}

func TestBufferPoolPinnedPagesNotEvicted(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	var pinned []*Page
	for i := 0; i < 4; i++ {
		p, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, p)
	}
	// Pool is full of pinned pages: the next allocation must fail.
	if _, err := bp.Allocate(); err == nil {
		t.Fatal("allocation with fully pinned pool should fail")
	}
	bp.Unpin(pinned[0])
	if _, err := bp.Allocate(); err != nil {
		t.Fatalf("allocation after unpin failed: %v", err)
	}
	for _, p := range pinned[1:] {
		bp.Unpin(p)
	}
}

func TestBufferPoolNoStealTxnDirty(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	p, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	bp.markTxnDirty(p)
	id := p.ID()
	bp.Unpin(p)
	// Fill the pool; the txn-dirty page must survive unflushed.
	for i := 0; i < 6; i++ {
		q, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		q.MarkDirty()
		bp.Unpin(q)
	}
	// The txn-dirty page is still buffered (was never evicted).
	if !resident(bp, id) {
		t.Fatal("txn-dirty page was evicted (no-steal violated)")
	}
	bp.EndTxn(true)
	// Now it may be evicted.
	for i := 0; i < 6; i++ {
		q, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(q)
	}
}

func TestBufferPoolFlushHookWALRule(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	var flushedThrough []uint64
	bp.SetFlushHook(func(lsn uint64) error {
		flushedThrough = append(flushedThrough, lsn)
		return nil
	})
	p, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p.SetLSN(77)
	p.MarkDirty()
	bp.Unpin(p)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range flushedThrough {
		if l == 77 {
			found = true
		}
	}
	if !found {
		t.Errorf("flush hook never saw LSN 77: %v", flushedThrough)
	}
}

func TestBufferPoolDeallocateReuse(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 8)
	p, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID()
	bp.Unpin(p)
	if err := bp.Deallocate(id); err != nil {
		t.Fatal(err)
	}
	p2, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID() != id {
		t.Errorf("freed page not reused: got %d, want %d", p2.ID(), id)
	}
	bp.Unpin(p2)
}

// TestAllocateTakesResidentFrame reallocates a free page that a read made
// resident again (as the open scan does for every page). The page must keep
// one frame: with two, evicting the stale one unmaps the live one, and the
// next fetch reads the device's old bytes.
func TestAllocateTakesResidentFrame(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 8)
	var ids []PageID
	for i := 0; i < 4; i++ {
		p, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID())
		bp.Unpin(p)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	free := ids[1]
	if err := bp.Deallocate(free); err != nil {
		t.Fatal(err)
	}
	p, err := bp.Fetch(free)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(p)
	live, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if live.ID() != free {
		t.Fatalf("allocated page %d, want the freed page %d", live.ID(), free)
	}
	live.Data()[100] = 0xAB
	live.MarkDirty()
	// Cycle the clock through other pages while the live frame is pinned.
	for i := 0; i < 40; i++ {
		p, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(p)
	}
	bp.Unpin(live)
	got, err := bp.Fetch(free)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(got)
	if got.Data()[100] != 0xAB {
		t.Fatal("a reallocated resident page lost its write: it had a second frame")
	}
}

func TestBufferPoolDeallocatePinnedFails(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 8)
	p, _ := bp.Allocate()
	if err := bp.Deallocate(p.ID()); err == nil {
		t.Error("deallocating a pinned page should fail")
	}
	bp.Unpin(p)
}

func TestPoolStatsHitRatio(t *testing.T) {
	s := PoolStats{Hits: 3, Misses: 1}
	if got := s.HitRatio(); got != 0.75 {
		t.Errorf("HitRatio = %v", got)
	}
	if (PoolStats{}).HitRatio() != 0 {
		t.Error("empty stats should have ratio 0")
	}
}

func TestMetaPage(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 8)
	if err := InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	payload, clean, err := ReadMeta(bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 0 || !clean {
		t.Fatalf("fresh meta: payload %d bytes, clean %v", len(payload), clean)
	}
	if err := WriteMeta(bp, []byte("engine state"), false); err != nil {
		t.Fatal(err)
	}
	payload, clean, err = ReadMeta(bp)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "engine state" || clean {
		t.Fatalf("meta round-trip: %q clean=%v", payload, clean)
	}
	if err := WriteMeta(bp, make([]byte, MetaPayloadMax+1), true); err == nil {
		t.Error("oversized meta payload accepted")
	}
	// InitMeta on a non-empty device must fail.
	if err := InitMeta(bp); err == nil {
		t.Error("InitMeta on non-empty device accepted")
	}
}

func TestUnpinPanicsWhenNotPinned(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	p, _ := bp.Allocate()
	bp.Unpin(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin did not panic")
		}
	}()
	bp.Unpin(p)
}

// stampedDevice returns a device of n pages, each holding its own id at
// byte 100, written through a pool so every page carries its checksum.
func stampedDevice(tb testing.TB, n int) *MemDevice {
	tb.Helper()
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 8)
	for i := 0; i < n; i++ {
		p, err := bp.Allocate()
		if err != nil {
			tb.Fatal(err)
		}
		binary.LittleEndian.PutUint64(p.Data()[100:], uint64(p.ID()))
		p.MarkDirty()
		bp.Unpin(p)
	}
	if err := bp.FlushAll(); err != nil {
		tb.Fatal(err)
	}
	return dev
}

// touch fetches page id, checks its stamp and unpins it.
func touch(tb testing.TB, bp *BufferPool, id PageID) {
	tb.Helper()
	p, err := bp.Fetch(id)
	if err != nil {
		tb.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(p.Data()[100:]); got != uint64(id) {
		tb.Fatalf("page %d holds the stamp of page %d", id, got)
	}
	bp.Unpin(p)
}

func resident(bp *BufferPool, id PageID) bool {
	bp.mu.RLock()
	defer bp.mu.RUnlock()
	_, ok := bp.frames[id]
	return ok
}

// TestBufferPoolConcurrentFetchUnpin runs readers against a pool a quarter
// the size of the device, so hits under the shared lock, misses and
// evictions under the exclusive one, and lock-free unpins all interleave.
// One goroutine also marks the pages it holds dirty, as the engine's single
// writer does, so evictions write pages back while others hit. Run it with
// -race.
func TestBufferPoolConcurrentFetchUnpin(t *testing.T) {
	const poolPages, devPages, workers, rounds = 16, 64, 6, 3000
	dev := stampedDevice(t, devPages)
	bp := NewBufferPool(dev, poolPages)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				// Hold up to two pages at once: six workers pin at most 12
				// of the 16 frames, so the pool never runs dry.
				held := make([]*Page, 0, 2)
				for n := 1 + rng.Intn(2); n > 0; n-- {
					id := PageID(rng.Intn(devPages))
					p, err := bp.Fetch(id)
					if err != nil {
						t.Errorf("worker %d: fetch %d: %v", g, id, err)
						return
					}
					if got := binary.LittleEndian.Uint64(p.Data()[100:]); got != uint64(id) {
						t.Errorf("worker %d: page %d holds the stamp of page %d", g, id, got)
					}
					if g == 0 {
						p.MarkDirty()
					}
					held = append(held, p)
				}
				for _, p := range held {
					bp.Unpin(p)
				}
			}
		}(g)
	}
	wg.Wait()
	st := bp.Stats()
	if st.Pinned != 0 {
		t.Errorf("%d frames pinned after every worker unpinned", st.Pinned)
	}
	if st.Evictions == 0 || st.Hits == 0 {
		t.Errorf("stats %+v: the run needs both hits and evictions", st)
	}
	for id := PageID(0); id < devPages; id++ {
		touch(t, bp, id)
	}
}

// TestBufferPoolTxnDirtyPagesUnevictableUntilEndTxn dirties k pages of a
// full pool in a transaction, then streams the rest of the device through
// it: exactly those k stay resident until EndTxn, and are evicted after.
func TestBufferPoolTxnDirtyPagesUnevictableUntilEndTxn(t *testing.T) {
	const poolPages, devPages = 8, 32
	dev := stampedDevice(t, devPages)
	bp := NewBufferPool(dev, poolPages)
	for id := PageID(0); id < poolPages; id++ {
		touch(t, bp, id)
	}
	bp.BeginTxn()
	dirtied := map[PageID]bool{1: true, 4: true, 6: true}
	for id := range dirtied {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		bp.markTxnDirty(p)
		bp.Unpin(p)
	}
	for id := PageID(poolPages); id < devPages; id++ {
		touch(t, bp, id)
	}
	for id := PageID(0); id < poolPages; id++ {
		if resident(bp, id) != dirtied[id] {
			t.Errorf("during the transaction: page %d resident %v, txn-dirty %v", id, resident(bp, id), dirtied[id])
		}
	}
	bp.EndTxn(true)
	if len(bp.txnPages) != 0 {
		t.Errorf("EndTxn left %d pages listed", len(bp.txnPages))
	}
	for id := PageID(poolPages); id < devPages; id++ {
		touch(t, bp, id)
	}
	for id := range dirtied {
		if resident(bp, id) {
			t.Errorf("page %d still resident after EndTxn and a full sweep", id)
		}
		touch(t, bp, id) // written back on eviction, content intact
	}
}

// TestBufferPoolSecondChance fills a pool, hits half its pages again, then
// misses on as many new pages: the sweep passes over the re-fetched pages
// and evicts the ones touched only once.
func TestBufferPoolSecondChance(t *testing.T) {
	const poolPages = 8
	dev := stampedDevice(t, 2*poolPages)
	bp := NewBufferPool(dev, poolPages)
	for id := PageID(0); id < poolPages; id++ {
		touch(t, bp, id)
	}
	for id := PageID(0); id < poolPages; id += 2 {
		touch(t, bp, id)
	}
	for id := PageID(poolPages); id < poolPages+poolPages/2; id++ {
		touch(t, bp, id)
	}
	for id := PageID(0); id < poolPages; id++ {
		if want := id%2 == 0; resident(bp, id) != want {
			t.Errorf("page %d resident %v, want %v", id, resident(bp, id), want)
		}
	}
	st := bp.Stats()
	if st.Hits != poolPages/2 || st.Misses != poolPages+poolPages/2 || st.Evictions != poolPages/2 {
		t.Errorf("stats %+v, want %d hits, %d misses, %d evictions", st, poolPages/2, poolPages+poolPages/2, poolPages/2)
	}
}

// BenchmarkPoolFetchParallel measures Fetch+Unpin pairs that all hit, from
// GOMAXPROCS goroutines at once. Each goroutine walks the pages from its own
// starting point, as parallel scan workers walk their own chunks.
func BenchmarkPoolFetchParallel(b *testing.B) {
	const pages = 64
	bp := NewBufferPool(stampedDevice(b, pages), pages)
	for id := PageID(0); id < pages; id++ {
		touch(b, bp, id)
	}
	var worker atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := PageID(worker.Add(1)*pages/4) % pages
		for pb.Next() {
			p, err := bp.Fetch(id)
			if err != nil {
				b.Error(err)
				return
			}
			bp.Unpin(p)
			id = (id + 1) % pages
		}
	})
}

// BenchmarkEndTxn measures a transaction that dirties four pages, ended
// on a pool holding 5 640 pages (the frames a personnel-L store keeps
// resident).
func BenchmarkEndTxn(b *testing.B) {
	const frames, perTxn = 5640, 4
	bp := NewBufferPool(NewMemDevice(), frames)
	pages := make([]*Page, 0, frames)
	for i := 0; i < frames; i++ {
		p, err := bp.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(p)
		pages = append(pages, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.BeginTxn()
		for j := 0; j < perTxn; j++ {
			bp.markTxnDirty(pages[(i*perTxn+j)%frames])
		}
		bp.EndTxn(true)
	}
}
