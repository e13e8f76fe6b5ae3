package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tcodm/internal/storage"
)

func newWAL(t *testing.T, sync bool) *WAL {
	t.Helper()
	w, err := Open(filepath.Join(t.TempDir(), "test.wal"), Options{SyncOnCommit: sync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// logInsert, logUpdate and logDelete log heap changes that keep the
// payload in its home slot.
func logInsert(w *WAL, rid storage.RID, data []byte) uint64 {
	return w.LogHeap(&storage.Change{Kind: storage.ChangeInsert, Home: rid, Body: rid, Data: data})
}

func logUpdate(w *WAL, rid storage.RID, data []byte) uint64 {
	return w.LogHeap(&storage.Change{Kind: storage.ChangeUpdate, Home: rid, Body: rid, Data: data})
}

func logDelete(w *WAL, rid storage.RID) uint64 {
	return w.LogHeap(&storage.Change{Kind: storage.ChangeDelete, Home: rid})
}

// replay recovers w and redoes its heap records into h, as the engine does.
func replay(t *testing.T, w *WAL, h *storage.Heap) RecoveryStats {
	t.Helper()
	recs, stats, err := w.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Op != OpHeapInsert && r.Op != OpHeapUpdate && r.Op != OpHeapDelete {
			continue
		}
		c, err := r.Change()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Redo(c, r.LSN); err != nil {
			t.Fatal(err)
		}
		stats.Replayed++
	}
	return stats
}

func TestCommitWritesRecords(t *testing.T) {
	w := newWAL(t, true)
	if err := w.BeginTxn(1); err != nil {
		t.Fatal(err)
	}
	rid := storage.RID{Page: 3, Slot: 1}
	l1 := logInsert(w, rid, []byte("hello"))
	l2 := logUpdate(w, rid, []byte("world"))
	l3 := logDelete(w, rid)
	if !(l1 < l2 && l2 < l3) {
		t.Fatalf("LSNs not monotone: %d %d %d", l1, l2, l3)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	records, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("records = %d, want 4 (3 ops + commit)", len(records))
	}
	if c, err := records[0].Change(); records[0].Op != OpHeapInsert || err != nil || !bytes.Equal(c.Data, []byte("hello")) {
		t.Errorf("record 0 = %+v (%v)", records[0], err)
	}
	if records[3].Op != OpCommit || records[3].Txn != 1 {
		t.Errorf("record 3 = %+v", records[3])
	}
	if records[2].RID != rid {
		t.Errorf("delete RID = %v", records[2].RID)
	}
}

func TestAbortDropsRecords(t *testing.T) {
	w := newWAL(t, true)
	_ = w.BeginTxn(1)
	logInsert(w, storage.RID{Page: 1}, []byte("doomed"))
	w.Abort()
	records, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("aborted records reached the log: %d", len(records))
	}
	// A new transaction can begin after abort.
	if err := w.BeginTxn(2); err != nil {
		t.Fatal(err)
	}
	logInsert(w, storage.RID{Page: 1}, []byte("kept"))
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	records, _ = w.ReadAll()
	if len(records) != 2 {
		t.Fatalf("records = %d, want 2", len(records))
	}
}

func TestDoubleBeginAndCommitWithoutBegin(t *testing.T) {
	w := newWAL(t, false)
	if err := w.BeginTxn(0); err == nil {
		t.Error("zero txn id accepted")
	}
	if err := w.BeginTxn(1); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginTxn(2); err == nil {
		t.Error("nested BeginTxn accepted")
	}
	w.Abort()
	if _, err := w.Commit(); err == nil {
		t.Error("commit without begin accepted")
	}
}

func TestEnsureDurable(t *testing.T) {
	w := newWAL(t, false) // no sync on commit
	_ = w.BeginTxn(1)
	lsn := logInsert(w, storage.RID{Page: 1}, []byte("x"))
	// Uncommitted LSN cannot be made durable: WAL-rule violation.
	if err := w.EnsureDurable(lsn); err == nil {
		t.Error("EnsureDurable of unappended LSN should fail")
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Appended but unsynced: EnsureDurable syncs.
	if err := w.EnsureDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := w.EnsureDurable(lsn); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTruncates(t *testing.T) {
	w := newWAL(t, true)
	_ = w.BeginTxn(1)
	logInsert(w, storage.RID{Page: 1}, bytes.Repeat([]byte("z"), 100))
	w.Commit()
	if w.Size() == 0 {
		t.Fatal("log empty after commit")
	}
	next := w.NextLSN()
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Error("log not truncated")
	}
	if w.NextLSN() != next {
		t.Error("LSN counter reset by checkpoint")
	}
	// Checkpoint during a transaction is refused.
	_ = w.BeginTxn(2)
	if err := w.Checkpoint(); err == nil {
		t.Error("checkpoint during txn accepted")
	}
	w.Abort()
}

func newRecoveryHeap(t *testing.T) (*storage.Heap, *storage.BufferPool) {
	t.Helper()
	dev := storage.NewMemDevice()
	bp := storage.NewBufferPool(dev, 32)
	if err := storage.InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	return storage.NewHeap(bp, nil), bp
}

func TestReplayCommittedOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	w, err := Open(path, Options{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	// Committed transaction.
	_ = w.BeginTxn(1)
	logInsert(w, storage.RID{Page: 1, Slot: 0}, []byte("committed"))
	w.Commit()
	// Simulate a crash mid-transaction: records appended without commit.
	// (Write them via a second committed txn's framing trick: append
	// manually by beginning and never committing — buffered records never
	// reach the file, which is exactly the no-commit-no-log property.)
	_ = w.BeginTxn(2)
	logInsert(w, storage.RID{Page: 1, Slot: 1}, []byte("uncommitted"))
	w.Close() // crash: pending buffer lost

	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	h, _ := newRecoveryHeap(t)
	stats := replay(t, w2, h)
	if stats.Replayed != 1 {
		t.Fatalf("replayed %d, want 1 (stats %+v)", stats.Replayed, stats)
	}
	got, err := h.Fetch(storage.RID{Page: 1, Slot: 0})
	if err != nil || string(got) != "committed" {
		t.Fatalf("replayed record: %q, %v", got, err)
	}
	if _, err := h.Fetch(storage.RID{Page: 1, Slot: 1}); err == nil {
		t.Error("uncommitted record materialized")
	}
	if w2.NextLSN() <= stats.MaxLSN {
		t.Error("NextLSN not advanced past replayed records")
	}
}

func TestReplayFullLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.wal")
	w, _ := Open(path, Options{SyncOnCommit: true})
	rid := storage.RID{Page: 1, Slot: 0}
	_ = w.BeginTxn(1)
	logInsert(w, rid, []byte("v1"))
	w.Commit()
	_ = w.BeginTxn(2)
	logUpdate(w, rid, []byte("v2"))
	w.Commit()
	_ = w.BeginTxn(3)
	logDelete(w, rid)
	w.Commit()
	_ = w.BeginTxn(4)
	logInsert(w, storage.RID{Page: 1, Slot: 1}, []byte("other"))
	w.Commit()
	w.Close()

	w2, _ := Open(path, Options{})
	defer w2.Close()
	h, _ := newRecoveryHeap(t)
	stats := replay(t, w2, h)
	if stats.Replayed != 4 {
		t.Errorf("replayed %d, want 4", stats.Replayed)
	}
	if _, err := h.Fetch(rid); err == nil {
		t.Error("deleted record resurrected")
	}
	got, err := h.Fetch(storage.RID{Page: 1, Slot: 1})
	if err != nil || string(got) != "other" {
		t.Errorf("surviving record: %q, %v", got, err)
	}
}

func TestReplayIdempotentViaPageLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "i.wal")
	w, _ := Open(path, Options{SyncOnCommit: true})
	rid := storage.RID{Page: 1, Slot: 0}
	_ = w.BeginTxn(1)
	logInsert(w, rid, []byte("once"))
	w.Commit()
	w.Close()

	w2, _ := Open(path, Options{})
	defer w2.Close()
	h, _ := newRecoveryHeap(t)
	replay(t, w2, h)
	// Replaying again must not double-insert (page LSN guard).
	replay(t, w2, h)
	n := 0
	_ = h.Scan(func(r storage.RID, data []byte) (bool, error) {
		n++
		return true, nil
	})
	if n != 1 {
		t.Fatalf("record count after double replay = %d, want 1", n)
	}
}

func TestTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, _ := Open(path, Options{SyncOnCommit: true})
	_ = w.BeginTxn(1)
	logInsert(w, storage.RID{Page: 1, Slot: 0}, []byte("good"))
	w.Commit()
	w.Close()

	// Append garbage simulating a torn write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02})
	f.Close()

	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	records, err := w2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("records = %d, want 2 (op + commit)", len(records))
	}
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	w, _ := Open(path, Options{SyncOnCommit: true})
	_ = w.BeginTxn(1)
	logInsert(w, storage.RID{Page: 1, Slot: 0}, []byte("first"))
	w.Commit()
	sizeAfterFirst := w.Size()
	_ = w.BeginTxn(2)
	logInsert(w, storage.RID{Page: 1, Slot: 1}, []byte("second"))
	w.Commit()
	w.Close()

	// Flip a byte inside the second transaction's frames.
	data, _ := os.ReadFile(path)
	data[sizeAfterFirst+12] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	w2, _ := Open(path, Options{})
	defer w2.Close()
	records, err := w2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("records = %d, want 2 (corruption should stop the read)", len(records))
	}
}

func TestSetNextLSN(t *testing.T) {
	w := newWAL(t, false)
	w.SetNextLSN(100)
	if w.NextLSN() != 100 {
		t.Errorf("NextLSN = %d", w.NextLSN())
	}
	w.SetNextLSN(50) // never moves backwards
	if w.NextLSN() != 100 {
		t.Errorf("NextLSN moved backwards to %d", w.NextLSN())
	}
	// Durability marks track: an old page LSN from before a checkpoint
	// must be considered durable.
	if err := w.EnsureDurable(99); err != nil {
		t.Errorf("pre-existing LSN not durable: %v", err)
	}
}
