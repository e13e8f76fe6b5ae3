package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

func newTestHeap(t *testing.T, poolPages int) (*Heap, *BufferPool, *MemDevice) {
	t.Helper()
	dev := NewMemDevice()
	bp := NewBufferPool(dev, poolPages)
	if err := InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	return NewHeap(bp, nil), bp, dev
}

func TestHeapInsertFetch(t *testing.T) {
	h, _, _ := newTestHeap(t, 16)
	recs := [][]byte{
		[]byte("alpha"),
		[]byte(""),
		bytes.Repeat([]byte("beta"), 100),
	}
	var rids []RID
	for _, r := range recs {
		rid, err := h.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := h.Fetch(rid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("rid %v: got %q, want %q", rid, got, recs[i])
		}
	}
}

func TestHeapUpdateInPlace(t *testing.T) {
	h, _, _ := newTestHeap(t, 16)
	rid, err := h.Insert([]byte("original content here"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Update(rid, []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, _ := h.Fetch(rid)
	if string(got) != "short" {
		t.Errorf("after update: %q", got)
	}
}

func TestHeapUpdateWithMoveKeepsRID(t *testing.T) {
	h, _, _ := newTestHeap(t, 32)
	// Fill one page almost completely so a grow must move the record.
	var rids []RID
	for i := 0; i < 7; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte('a' + i)}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	victim := rids[0]
	grown := bytes.Repeat([]byte("G"), 3000)
	if err := h.Update(victim, grown); err != nil {
		t.Fatal(err)
	}
	got, err := h.Fetch(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, grown) {
		t.Error("grown record content lost")
	}
	// Update the moved record again, growing it further: the stub must be
	// repointed and the home RID must keep working.
	bigger := bytes.Repeat([]byte("H"), 6000)
	if err := h.Update(victim, bigger); err != nil {
		t.Fatal(err)
	}
	got, err = h.Fetch(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bigger) {
		t.Error("twice-moved record content lost")
	}
	// Neighbours intact.
	for i := 1; i < 7; i++ {
		got, err := h.Fetch(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, 1000)) {
			t.Errorf("neighbour %d corrupted", i)
		}
	}
}

func TestHeapOverflowRecords(t *testing.T) {
	h, bp, _ := newTestHeap(t, 16)
	big := make([]byte, 3*PageSize+123)
	rng := rand.New(rand.NewSource(5))
	for i := range big {
		big[i] = byte(rng.Intn(256))
	}
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("overflow record corrupted")
	}
	// Update to a different big payload: old chain freed, content correct.
	freeBefore := len(bp.FreePages())
	big2 := make([]byte, 2*PageSize)
	for i := range big2 {
		big2[i] = byte(rng.Intn(256))
	}
	if err := h.Update(rid, big2); err != nil {
		t.Fatal(err)
	}
	got, err = h.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big2) {
		t.Fatal("updated overflow record corrupted")
	}
	if len(bp.FreePages()) <= freeBefore {
		t.Error("old overflow chain not freed")
	}
	// Shrink to a plain record.
	if err := h.Update(rid, []byte("small again")); err != nil {
		t.Fatal(err)
	}
	got, _ = h.Fetch(rid)
	if string(got) != "small again" {
		t.Errorf("after shrink: %q", got)
	}
}

func TestHeapDelete(t *testing.T) {
	h, bp, _ := newTestHeap(t, 16)
	rid, _ := h.Insert([]byte("condemned"))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fetch(rid); err == nil {
		t.Error("fetch of deleted record should fail")
	}
	// Delete of an overflow record frees the chain.
	big := make([]byte, 2*PageSize)
	rid2, _ := h.Insert(big)
	before := len(bp.FreePages())
	if err := h.Delete(rid2); err != nil {
		t.Fatal(err)
	}
	if len(bp.FreePages()) <= before {
		t.Error("overflow chain not freed on delete")
	}
}

func TestHeapDeleteMovedRecord(t *testing.T) {
	h, _, _ := newTestHeap(t, 32)
	var rids []RID
	for i := 0; i < 7; i++ {
		rid, _ := h.Insert(bytes.Repeat([]byte{byte('a' + i)}, 1000))
		rids = append(rids, rid)
	}
	if err := h.Update(rids[0], bytes.Repeat([]byte("G"), 3000)); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fetch(rids[0]); err == nil {
		t.Error("fetch of deleted moved record should fail")
	}
}

func TestHeapScan(t *testing.T) {
	h, _, _ := newTestHeap(t, 64)
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		payload := []byte{byte(i), byte(i >> 8), 0xAB}
		if _, err := h.Insert(payload); err != nil {
			t.Fatal(err)
		}
		want[string(payload)] = true
	}
	// Move one record so the scan's moved-record pass is exercised.
	rid, _ := h.Insert(bytes.Repeat([]byte("m"), 100))
	// Fill its page, then grow.
	for i := 0; i < 10; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte("f"), 700)); err != nil {
			t.Fatal(err)
		}
	}
	moved := bytes.Repeat([]byte("M"), 7000)
	if err := h.Update(rid, moved); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	err := h.Scan(func(r RID, data []byte) (bool, error) {
		got[string(data)]++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for payload := range want {
		if got[payload] != 1 {
			t.Errorf("payload %x seen %d times", payload, got[payload])
		}
	}
	if got[string(moved)] != 1 {
		t.Errorf("moved record seen %d times in scan", got[string(moved)])
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h, _, _ := newTestHeap(t, 16)
	for i := 0; i < 10; i++ {
		if _, err := h.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := h.Scan(func(r RID, data []byte) (bool, error) {
		n++
		return n < 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("scan visited %d records after early stop", n)
	}
}

func TestHeapRebuildFreeSpace(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 16)
	if err := InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	h := NewHeap(bp, nil)
	var rids []RID
	for i := 0; i < 30; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte("x"), 400))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Fresh heap over the same device: rebuild, then keep inserting.
	h2 := NewHeap(bp, nil)
	if err := h2.Rebuild(dev, false); err != nil {
		t.Fatal(err)
	}
	rid, err := h2.Insert([]byte("after rebuild"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.Fetch(rid)
	if err != nil || string(got) != "after rebuild" {
		t.Fatalf("fetch after rebuild: %q, %v", got, err)
	}
	// Old records still reachable.
	for _, r := range rids[:5] {
		if _, err := h2.Fetch(r); err != nil {
			t.Fatalf("old record lost after rebuild: %v", err)
		}
	}
}

func TestHeapUndoPrimitives(t *testing.T) {
	h, _, _ := newTestHeap(t, 16)
	kept, _ := h.Insert([]byte("v1"))
	doomed, _ := h.Insert([]byte("doomed"))
	h.SetTxnActive(true)
	// Insert, update and delete inside one transaction, then roll back.
	rid, _ := h.Insert([]byte("inserted"))
	if err := h.Update(kept, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(doomed); err != nil {
		t.Fatal(err)
	}
	if err := h.Rollback(); err != nil {
		t.Fatal(err)
	}
	h.SetTxnActive(false)
	if got, err := h.Fetch(rid); err == nil {
		t.Errorf("rolled-back insert survived: %q", got)
	}
	if got, _ := h.Fetch(kept); string(got) != "v1" {
		t.Errorf("rolled-back update left %q", got)
	}
	if got, _ := h.Fetch(doomed); string(got) != "doomed" {
		t.Errorf("rolled-back delete left %q", got)
	}
}

// recordingLogger keeps every logged change with the LSN it assigned.
type recordingLogger struct {
	lsn     uint64
	changes []*Change
}

func (l *recordingLogger) LogHeap(c *Change) uint64 {
	l.lsn++
	cp := *c
	cp.Data = append([]byte(nil), c.Data...)
	l.changes = append(l.changes, &cp)
	return l.lsn
}

func TestHeapLogsMutations(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 16)
	if err := InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	log := &recordingLogger{}
	h := NewHeap(bp, log)
	rid, _ := h.Insert([]byte("a"))
	_ = h.Update(rid, []byte("b"))
	_ = h.Delete(rid)
	var kinds []ChangeKind
	for _, c := range log.changes {
		kinds = append(kinds, c.Kind)
	}
	if len(kinds) != 3 || kinds[0] != ChangeInsert || kinds[1] != ChangeUpdate || kinds[2] != ChangeDelete {
		t.Fatalf("logged kinds = %v", kinds)
	}
	// Page LSN stamped with the last mutation.
	p, err := bp.Fetch(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	if p.LSN() != 3 {
		t.Errorf("page LSN = %d, want 3", p.LSN())
	}
	bp.Unpin(p)
}

// TestHeapUpdateOfMovedRecordWritesOnePage: once a record has moved, an
// update that fits its float copy rewrites that copy alone — home's stub
// already points there, so the home page is neither written nor stamped.
func TestHeapUpdateOfMovedRecordWritesOnePage(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 32)
	if err := InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	log := &recordingLogger{}
	h := NewHeap(bp, log)
	var rids []RID
	for i := 0; i < 7; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte('a' + i)}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Update(rids[0], bytes.Repeat([]byte("G"), 3000)); err != nil {
		t.Fatal(err)
	}
	move := log.changes[len(log.changes)-1]
	if move.Drop != rids[0] || move.Body.Page == rids[0].Page {
		t.Fatalf("first move logged as %+v", move)
	}
	if err := h.Update(rids[0], bytes.Repeat([]byte("H"), 2900)); err != nil {
		t.Fatal(err)
	}
	upd := log.changes[len(log.changes)-1]
	if upd.Body != move.Body || upd.Drop.IsValid() {
		t.Fatalf("in-place update of the float copy logged as %+v", upd)
	}
	for _, tc := range []struct {
		page PageID
		want uint64
	}{{rids[0].Page, log.lsn - 1}, {move.Body.Page, log.lsn}} {
		p, err := bp.Fetch(tc.page)
		if err != nil {
			t.Fatal(err)
		}
		if p.LSN() != tc.want {
			t.Errorf("page %d LSN = %d, want %d", tc.page, p.LSN(), tc.want)
		}
		bp.Unpin(p)
	}
	if got, err := h.Fetch(rids[0]); err != nil || !bytes.Equal(got, bytes.Repeat([]byte("H"), 2900)) {
		t.Errorf("updated moved record: %d bytes, %v", len(got), err)
	}
}

// devicePages copies every page of a flushed device.
func devicePages(t *testing.T, dev *MemDevice) [][]byte {
	t.Helper()
	out := make([][]byte, dev.NumPages())
	for id := range out {
		out[id] = make([]byte, PageSize)
		if err := dev.ReadPage(PageID(id), out[id]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestHeapRedoHalfFlushedMove crashes a record move with only one of its
// two pages on the device — the home page with the stub, or the target
// page with the moved copy — and redoes the logged change: the missing
// page is rebuilt byte for byte, the flushed one is left alone, and a
// second redo changes nothing.
func TestHeapRedoHalfFlushedMove(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 32)
	if err := InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	log := &recordingLogger{}
	h := NewHeap(bp, log)
	var rids []RID
	for i := 0; i < 7; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte('a' + i)}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	checkpoint := devicePages(t, dev)
	log.changes = nil
	grown := bytes.Repeat([]byte("G"), 3000)
	if err := h.Update(rids[0], grown); err != nil {
		t.Fatal(err)
	}
	if len(log.changes) != 1 || log.changes[0].Body.Page == rids[0].Page {
		t.Fatalf("update did not log one move: %+v", log.changes)
	}
	move, lsn := log.changes[0], log.lsn
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	final := devicePages(t, dev)
	home, target := rids[0].Page, move.Body.Page

	for _, tc := range []struct {
		name    string
		flushed PageID
	}{{"home-flushed", home}, {"target-flushed", target}} {
		t.Run(tc.name, func(t *testing.T) {
			crashed := NewMemDevice()
			for id := range checkpoint {
				img := checkpoint[id]
				if PageID(id) == tc.flushed {
					img = final[id]
				}
				crashed.WritePage(PageID(id), img)
			}
			if tc.flushed == target && int(target) >= len(checkpoint) {
				crashed.WritePage(target, final[target])
			}
			pool := NewBufferPool(crashed, 32)
			rh := NewHeap(pool, nil)
			if err := rh.Rebuild(crashed, false); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				if err := rh.Redo(move, lsn); err != nil {
					t.Fatalf("redo round %d: %v", round, err)
				}
				if err := pool.FlushAll(); err != nil {
					t.Fatal(err)
				}
				got := devicePages(t, crashed)
				for _, id := range []PageID{home, target} {
					if !bytes.Equal(got[id], final[id]) {
						t.Errorf("round %d: page %d differs from the page the forward path wrote", round, id)
					}
				}
			}
			if got, err := rh.Fetch(rids[0]); err != nil || !bytes.Equal(got, grown) {
				t.Errorf("moved record after redo: %d bytes, %v", len(got), err)
			}
		})
	}
}

func TestHeapManyRecordsAcrossPages(t *testing.T) {
	h, _, dev := newTestHeap(t, 8)
	type entry struct {
		rid  RID
		data []byte
	}
	var entries []entry
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		data := make([]byte, 50+rng.Intn(400))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		rid, err := h.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{rid, data})
	}
	if dev.NumPages() < 10 {
		t.Errorf("expected many pages, got %d", dev.NumPages())
	}
	for _, e := range entries {
		got, err := h.Fetch(e.rid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, e.data) {
			t.Fatal("record corrupted across pages")
		}
	}
}

func TestHeapRecordSizeBoundaries(t *testing.T) {
	// Records exactly at the page-capacity boundary and just past it: the
	// first stays inline, the second spills to an overflow chain. Both
	// must round-trip.
	h, _, _ := newTestHeap(t, 32)
	for _, n := range []int{MaxHeapRecord - 1, MaxHeapRecord, MaxHeapRecord + 1, 2 * MaxHeapRecord} {
		data := bytes.Repeat([]byte{0xA5}, n)
		rid, err := h.Insert(data)
		if err != nil {
			t.Fatalf("insert %d bytes: %v", n, err)
		}
		got, err := h.Fetch(rid)
		if err != nil {
			t.Fatalf("fetch %d bytes: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d-byte record corrupted", n)
		}
	}
}

func TestHeapZeroLengthRecord(t *testing.T) {
	h, _, _ := newTestHeap(t, 16)
	rid, err := h.Insert(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Fetch(rid)
	if err != nil || len(got) != 0 {
		t.Fatalf("zero-length record: %v, %v", got, err)
	}
	if err := h.Update(rid, []byte("grown")); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Fetch(rid); string(got) != "grown" {
		t.Errorf("grown from zero = %q", got)
	}
}
