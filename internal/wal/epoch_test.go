package wal

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"tcodm/internal/storage"
)

func TestAppendEpochGroupWritesCommittedGroup(t *testing.T) {
	w := newWAL(t, true)
	if err := w.BeginTxn(1); err != nil {
		t.Fatal(err)
	}
	logInsert(w, storage.RID{Page: 1, Slot: 0}, []byte("before"))
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	lsn, err := w.AppendEpochGroup(7)
	if err != nil {
		t.Fatal(err)
	}
	records, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("records = %d, want 4 (insert+commit, epoch+commit)", len(records))
	}
	ep, cm := records[2], records[3]
	if ep.Op != OpEpoch || binary.LittleEndian.Uint64(ep.Data) != 7 {
		t.Fatalf("epoch record = %+v", ep)
	}
	if cm.Op != OpCommit || cm.Txn != ep.Txn || cm.LSN != lsn {
		t.Fatalf("epoch commit = %+v, group commit LSN %d", cm, lsn)
	}
	// The group's txn id is its own first LSN: collision-free by
	// construction against every other committed group in the log.
	if ep.Txn != ep.LSN {
		t.Fatalf("epoch txn id = %d, want own LSN %d", ep.Txn, ep.LSN)
	}
	if w.NextLSN() != lsn+1 {
		t.Fatalf("next LSN = %d, want %d", w.NextLSN(), lsn+1)
	}
}

func TestAppendEpochGroupRefusals(t *testing.T) {
	w := newWAL(t, true)
	if err := w.BeginTxn(1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendEpochGroup(1); err == nil {
		t.Error("epoch append allowed during an active transaction")
	}
	w.Abort()
	if _, err := w.AppendEpochGroup(1); err != nil {
		t.Errorf("epoch append after abort: %v", err)
	}

	ro, err := Open(filepath.Join(t.TempDir(), "ro.wal"), Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.AppendEpochGroup(1); err == nil {
		t.Error("epoch append allowed on a read-only log")
	}
}

// TestReplayRecoversEpoch proves the durability path: an epoch appended
// just before a crash is replayed into RecoveryStats, with EpochStart
// pointing at the frontier the promotion happened on.
func TestReplayRecoversEpoch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epoch.wal")
	w, err := Open(path, Options{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginTxn(1); err != nil {
		t.Fatal(err)
	}
	logInsert(w, storage.RID{Page: 1, Slot: 0}, []byte("x"))
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	frontier := w.NextLSN() - 1
	if _, err := w.AppendEpochGroup(3); err != nil {
		t.Fatal(err)
	}
	// An older, superseded epoch later in the log must not win: replay
	// keeps the max, not the last.
	if _, err := w.AppendEpochGroup(2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(path, Options{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	h, _ := newRecoveryHeap(t)
	stats := replay(t, w2, h)
	if stats.Epoch != 3 {
		t.Fatalf("replayed epoch = %d, want 3", stats.Epoch)
	}
	if stats.EpochStart != frontier {
		t.Fatalf("epoch start = %d, want %d", stats.EpochStart, frontier)
	}
}
