package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tcodm/internal/storage"
)

// TestCorruptionRobustness flips random bytes at random offsets of a valid
// log and checks the invariant recovery depends on: ReadAll never panics,
// never errors, and always returns a prefix of the intact record sequence
// up to (and excluding) the corruption — committed work before the damage
// is never lost, and garbage after it is never fabricated.
func TestCorruptionRobustness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fuzz.wal")
	w, err := Open(path, Options{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	const txns = 40
	var recordEnds []int64 // log size after each commit
	for i := 1; i <= txns; i++ {
		if err := w.BeginTxn(uint64(i)); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 10+i)
		for j := range payload {
			payload[j] = byte(i)
		}
		logInsert(w, storage.RID{Page: 1, Slot: uint16(i)}, payload)
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		recordEnds = append(recordEnds, w.Size())
	}
	w.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		corrupt := append([]byte(nil), intact...)
		off := rng.Intn(len(corrupt))
		old := corrupt[off]
		corrupt[off] ^= byte(1 + rng.Intn(255))
		if corrupt[off] == old {
			continue
		}
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		records, err := w2.ReadAll()
		w2.Close()
		if err != nil {
			t.Fatalf("trial %d: ReadAll errored: %v", trial, err)
		}
		// Every committed transaction whose bytes end before the damage
		// must be fully present (2 records each: op + commit).
		committedBefore := 0
		for _, end := range recordEnds {
			if end <= int64(off) {
				committedBefore++
			}
		}
		if len(records) < 2*committedBefore {
			t.Fatalf("trial %d: corruption at %d lost committed prefix: %d records, want >= %d",
				trial, off, len(records), 2*committedBefore)
		}
		// Returned records must be an exact prefix of the intact sequence.
		for i, r := range records {
			wantTxn := uint64(i/2 + 1)
			if r.Txn != wantTxn {
				t.Fatalf("trial %d: record %d has txn %d, want %d (fabricated data?)", trial, i, r.Txn, wantTxn)
			}
		}
	}
}

// FuzzRecordStream throws arbitrary bytes at the replication stream
// decoder: it must never panic or over-allocate, and whatever it does
// decode must survive a re-encode/re-decode round trip byte-identically
// (the property the follower's apply path depends on).
func FuzzRecordStream(f *testing.F) {
	seedRecs := []Record{
		{LSN: 1, Txn: 1, Op: OpHeapInsert, RID: storage.RID{Page: 2, Slot: 3}, Data: []byte("seed")},
		{LSN: 2, Txn: 1, Op: OpCommit},
	}
	f.Add(AppendRecordStream(nil, seedRecs))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, rest, err := DecodeRecordStream(data)
		if err != nil {
			return
		}
		enc := AppendRecordStream(nil, recs)
		got, rest2, err := DecodeRecordStream(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("canonical encoding left %d trailing bytes", len(rest2))
		}
		if len(got) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(got))
		}
		for i := range recs {
			if got[i].LSN != recs[i].LSN || got[i].Txn != recs[i].Txn ||
				got[i].Op != recs[i].Op || got[i].RID != recs[i].RID ||
				string(got[i].Data) != string(recs[i].Data) {
				t.Fatalf("record %d changed in round trip: %+v -> %+v", i, recs[i], got[i])
			}
		}
		_ = rest
	})
}

// TestTruncationRobustness cuts the log at every byte boundary of the first
// few records and checks the same prefix property.
func TestTruncationRobustness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.wal")
	w, _ := Open(path, Options{SyncOnCommit: true})
	for i := 1; i <= 5; i++ {
		_ = w.BeginTxn(uint64(i))
		logInsert(w, storage.RID{Page: 1, Slot: uint16(i)}, []byte{byte(i)})
		w.Commit()
	}
	w.Close()
	intact, _ := os.ReadFile(path)

	for cut := 0; cut <= len(intact); cut++ {
		if err := os.WriteFile(path, intact[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		records, err := w2.ReadAll()
		w2.Close()
		if err != nil {
			t.Fatalf("cut %d: ReadAll: %v", cut, err)
		}
		for i, r := range records {
			if r.Txn != uint64(i/2+1) {
				t.Fatalf("cut %d: record %d txn %d", cut, i, r.Txn)
			}
		}
	}
}
