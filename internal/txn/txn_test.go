package txn

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/wal"
)

func newEnv(t *testing.T, logged bool) (*Manager, *storage.Heap, *storage.BufferPool) {
	t.Helper()
	dev := storage.NewMemDevice()
	pool := storage.NewBufferPool(dev, 64)
	if err := storage.InitMeta(pool); err != nil {
		t.Fatal(err)
	}
	var w *wal.WAL
	if logged {
		var err error
		w, err = wal.Open(filepath.Join(t.TempDir(), "t.wal"), wal.Options{SyncOnCommit: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	heap := storage.NewHeap(pool, nil)
	if w != nil {
		heap.SetLogger(w)
		pool.SetFlushHook(w.EnsureDurable)
	}
	m := NewManager(temporal.NewClock(0), w, heap, pool)
	return m, heap, pool
}

func TestCommitAssignsMonotoneTT(t *testing.T) {
	m, heap, _ := newEnv(t, true)
	t1, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heap.Insert([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2, _ := m.Begin()
	if t2.TT <= t1.TT {
		t.Errorf("TT not monotone: %v then %v", t1.TT, t2.TT)
	}
	_ = t2.Commit()
	c, a := m.Stats()
	if c != 2 || a != 0 {
		t.Errorf("stats = %d commits, %d aborts", c, a)
	}
}

func TestAbortRollsBackHeap(t *testing.T) {
	m, heap, _ := newEnv(t, true)
	// Committed baseline record.
	t0, _ := m.Begin()
	rid, err := heap.Insert([]byte("keep"))
	if err != nil {
		t.Fatal(err)
	}
	if err := t0.Commit(); err != nil {
		t.Fatal(err)
	}
	// Aborted transaction: insert, update, delete.
	t1, _ := m.Begin()
	rid2, _ := heap.Insert([]byte("rollback-me"))
	if err := heap.Update(rid, []byte("mutated")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	// Inserted record gone, updated record restored.
	if _, err := heap.Fetch(rid2); err == nil {
		t.Error("aborted insert survived")
	}
	got, err := heap.Fetch(rid)
	if err != nil || string(got) != "keep" {
		t.Errorf("aborted update not rolled back: %q, %v", got, err)
	}
	// Delete rollback.
	t2, _ := m.Begin()
	if err := heap.Delete(rid); err != nil {
		t.Fatal(err)
	}
	_ = t2.Abort()
	got, err = heap.Fetch(rid)
	if err != nil || string(got) != "keep" {
		t.Errorf("aborted delete not rolled back: %q, %v", got, err)
	}
}

// slotImages copies every record of every heap page the pool can reach,
// keyed by RID.
func slotImages(t *testing.T, pool *storage.BufferPool) map[storage.RID]string {
	t.Helper()
	out := map[storage.RID]string{}
	for id := storage.PageID(1); ; id++ {
		p, err := pool.Fetch(id)
		if err != nil {
			return out // past the device end
		}
		if p.Type() == storage.PageHeap {
			for s := uint16(0); s < p.SlotCount(); s++ {
				if rec, err := p.ReadRecord(s); err == nil {
					out[storage.RID{Page: id, Slot: s}] = string(rec)
				}
			}
		}
		pool.Unpin(p)
	}
}

// TestAbortRestoresMovedRecord aborts an update that moved its record to
// another page behind a stub: every slot must read as it did before Begin.
func TestAbortRestoresMovedRecord(t *testing.T) {
	m, heap, pool := newEnv(t, true)
	t0, _ := m.Begin()
	var rids []storage.RID
	for i := 0; i < 7; i++ {
		rid, err := heap.Insert(bytes.Repeat([]byte{byte('a' + i)}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := t0.Commit(); err != nil {
		t.Fatal(err)
	}
	before := slotImages(t, pool)
	t1, _ := m.Begin()
	if err := heap.Update(rids[0], bytes.Repeat([]byte("G"), 3000)); err != nil {
		t.Fatal(err)
	}
	if moved := slotImages(t, pool); len(moved) != len(before)+1 {
		t.Fatalf("update did not move the record (%d slots before, %d after)", len(before), len(moved))
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	after := slotImages(t, pool)
	if len(after) != len(before) {
		t.Errorf("%d slots used after abort, %d before", len(after), len(before))
	}
	for rid, img := range before {
		if after[rid] != img {
			t.Errorf("slot %v differs from its image before Begin", rid)
		}
	}
}

func TestIndexUndoRunsOnAbort(t *testing.T) {
	m, heap, _ := newEnv(t, false)
	t1, _ := m.Begin()
	if _, err := heap.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	ran := false
	t1.RecordIndexUndo(func() error { ran = true; return nil })
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("index undo did not run on abort")
	}
	// Commit must NOT run index undo.
	t2, _ := m.Begin()
	ran2 := false
	t2.RecordIndexUndo(func() error { ran2 = true; return nil })
	_ = t2.Commit()
	if ran2 {
		t.Error("index undo ran on commit")
	}
}

func TestDoubleFinishRejected(t *testing.T) {
	m, _, _ := newEnv(t, false)
	t1, _ := m.Begin()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	if err := t1.Abort(); err == nil {
		t.Error("abort after commit accepted")
	}
}

func TestWritersSerialize(t *testing.T) {
	m, heap, _ := newEnv(t, false)
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx, err := m.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := heap.Insert([]byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	n := 0
	_ = heap.Scan(func(rid storage.RID, data []byte) (bool, error) {
		n++
		return true, nil
	})
	if n != writers*perWriter {
		t.Errorf("record count = %d, want %d", n, writers*perWriter)
	}
	c, _ := m.Stats()
	if c != writers*perWriter {
		t.Errorf("commits = %d", c)
	}
}

func TestCheckpointFlushesAndTruncates(t *testing.T) {
	dev := storage.NewMemDevice()
	pool := storage.NewBufferPool(dev, 64)
	if err := storage.InitMeta(pool); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(filepath.Join(t.TempDir(), "c.wal"), wal.Options{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	heap := storage.NewHeap(pool, nil)
	heap.SetLogger(w)
	pool.SetFlushHook(w.EnsureDurable)
	m := NewManager(temporal.NewClock(0), w, heap, pool)

	tx, _ := m.Begin()
	if _, err := heap.Insert([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.Size() == 0 {
		t.Fatal("log empty after commit")
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Error("log not truncated by checkpoint")
	}
	if pool.DirtyPages() != 0 {
		t.Error("dirty pages survive checkpoint")
	}
}

func TestCommittedSurviveCrashViaReplay(t *testing.T) {
	// Build a logged database, commit one txn, "crash" (drop the pool
	// without flushing), then recover on a fresh pool via WAL replay.
	dev := storage.NewMemDevice()
	pool := storage.NewBufferPool(dev, 64)
	if err := storage.InitMeta(pool); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil { // meta page reaches "disk"
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "crash.wal")
	w, err := wal.Open(walPath, wal.Options{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	heap := storage.NewHeap(pool, nil)
	heap.SetLogger(w)
	pool.SetFlushHook(w.EnsureDurable)
	m := NewManager(temporal.NewClock(0), w, heap, pool)

	tx, _ := m.Begin()
	rid, err := heap.Insert([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: pool discarded. Uncommitted writes never hit dev (no-steal),
	// committed ones are in the log.
	w.Close()

	w2, err := wal.Open(walPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	pool2 := storage.NewBufferPool(dev, 64)
	heap2 := storage.NewHeap(pool2, nil)
	if err := heap2.Rebuild(dev); err != nil {
		t.Fatal(err)
	}
	recs, _, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, r := range recs {
		if r.Op == wal.OpCommit {
			continue
		}
		c, err := r.Change()
		if err != nil {
			t.Fatal(err)
		}
		if err := heap2.Redo(c, r.LSN); err != nil {
			t.Fatal(err)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("nothing replayed")
	}
	got, err := heap2.Fetch(rid)
	if err != nil || string(got) != "durable" {
		t.Fatalf("committed record lost in crash: %q, %v", got, err)
	}
}
