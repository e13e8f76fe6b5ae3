package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcodm/internal/storage"
)

// commitN runs one committed transaction with n heap inserts and returns
// the commit marker's LSN.
func commitN(t *testing.T, w *WAL, txn uint64, n int) uint64 {
	t.Helper()
	if err := w.BeginTxn(txn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		logInsert(w, storage.RID{Page: storage.PageID(txn), Slot: uint16(i)}, []byte(fmt.Sprintf("txn%d-rec%d", txn, i)))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return w.AppendedLSN()
}

func TestCursorTailFollowsCommits(t *testing.T) {
	w := newWAL(t, false)
	c := w.Cursor(1)

	// Nothing yet: caught up, no error.
	recs, err := c.Read(100)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty read = %d recs, %v; want 0, nil", len(recs), err)
	}

	commitN(t, w, 1, 3)
	recs, err = c.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("batch 1 = %d records, want 4 (3 ops + commit)", len(recs))
	}
	if recs[len(recs)-1].Op != OpCommit {
		t.Fatalf("batch must end at a commit marker, got op %d", recs[len(recs)-1].Op)
	}

	// Two more transactions land; the cursor picks up both, in order.
	commitN(t, w, 2, 2)
	commitN(t, w, 3, 1)
	recs, err = c.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("batch 2 = %d records, want 5", len(recs))
	}
	prev := uint64(0)
	for _, r := range recs {
		if r.LSN <= prev {
			t.Fatalf("LSNs not ascending: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
	}
	// Caught up again.
	recs, err = c.Read(100)
	if err != nil || len(recs) != 0 {
		t.Fatalf("caught-up read = %d recs, %v", len(recs), err)
	}
}

func TestCursorNeverSplitsCommitGroup(t *testing.T) {
	w := newWAL(t, false)
	commitN(t, w, 1, 5) // group of 6 records
	commitN(t, w, 2, 5) // group of 6 records
	c := w.Cursor(1)
	// maxRecords = 2 lands mid-group: the batch must extend to the group's
	// commit marker rather than split it.
	recs, err := c.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("batch = %d records, want 6 (whole first group)", len(recs))
	}
	if recs[len(recs)-1].Op != OpCommit || recs[len(recs)-1].Txn != 1 {
		t.Fatalf("batch does not end at txn 1's commit: %+v", recs[len(recs)-1])
	}
	recs, err = c.Read(100)
	if err != nil || len(recs) != 6 {
		t.Fatalf("second batch = %d records, %v; want 6", len(recs), err)
	}
}

func TestCursorAbortHolesAreNotGaps(t *testing.T) {
	w := newWAL(t, false)
	commitN(t, w, 1, 2)
	// Aborted transaction burns LSNs without writing them.
	_ = w.BeginTxn(2)
	logInsert(w, storage.RID{Page: 9}, []byte("doomed"))
	logInsert(w, storage.RID{Page: 9, Slot: 1}, []byte("doomed too"))
	w.Abort()
	commitN(t, w, 3, 2)

	c := w.Cursor(1)
	var all []Record
	for {
		recs, err := c.Read(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		all = append(all, recs...)
	}
	if len(all) != 6 {
		t.Fatalf("read %d records, want 6 (two groups of 3)", len(all))
	}
}

func TestCursorCheckpointInteraction(t *testing.T) {
	w := newWAL(t, false)
	commitN(t, w, 1, 2)
	c := w.Cursor(1)
	recs, err := c.Read(100)
	if err != nil || len(recs) != 3 {
		t.Fatalf("pre-checkpoint read = %d recs, %v", len(recs), err)
	}

	// Checkpoint truncates everything the cursor has consumed: the cursor
	// carries on cleanly with records appended afterwards.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitN(t, w, 2, 2)
	recs, err = c.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("post-checkpoint read = %d recs, want 3", len(recs))
	}
	if recs[0].Txn != 2 {
		t.Fatalf("post-checkpoint records from txn %d, want 2", recs[0].Txn)
	}

	// A cursor still needing truncated records reports ErrGap, not silence.
	stale := w.Cursor(1)
	if _, err := stale.Read(100); !errors.Is(err, ErrGap) {
		t.Fatalf("stale cursor error = %v, want ErrGap", err)
	}
}

func TestCursorCheckpointRaceMidStream(t *testing.T) {
	w := newWAL(t, false)
	commitN(t, w, 1, 2)
	commitN(t, w, 2, 2)
	c := w.Cursor(1)
	// Consume only the first group.
	if recs, err := c.Read(1); err != nil || len(recs) != 3 {
		t.Fatalf("first group read = %d recs, %v", len(recs), err)
	}
	// Checkpoint destroys the second group before the cursor reads it.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(100); !errors.Is(err, ErrGap) {
		t.Fatalf("error = %v, want ErrGap (unread group truncated away)", err)
	}
}

func TestCursorFromLSNSkipsPrefix(t *testing.T) {
	w := newWAL(t, false)
	commitN(t, w, 1, 2)
	mid := w.AppendedLSN()
	commitN(t, w, 2, 2)
	c := w.Cursor(mid + 1)
	recs, err := c.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Txn != 2 {
		t.Fatalf("got %d records (first txn %d), want 3 from txn 2", len(recs), recs[0].Txn)
	}
}

func TestCursorTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, w, 1, 2)
	commitN(t, w, 2, 2)
	size := w.Size()
	w.Close()

	// Tear the final frame: cut 3 bytes off the file.
	if err := os.Truncate(path, size-3); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	c := w2.Cursor(1)
	// The torn group's records must not ship: its commit marker is gone.
	recs, err := c.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[len(recs)-1].Txn != 1 {
		t.Fatalf("batch = %d records, want only txn 1's intact group", len(recs))
	}
	// The next read hits the torn group: it must error, not ship a
	// partial group.
	if _, err := c.Read(100); err == nil {
		t.Fatal("cursor shipped a torn commit group")
	}
}

func TestAppendWatchWakesOnCommit(t *testing.T) {
	w := newWAL(t, false)
	ch := w.AppendWatch()
	select {
	case <-ch:
		t.Fatal("watch fired before any commit")
	default:
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Error("watch never fired after commit")
		}
	}()
	commitN(t, w, 1, 1)
	<-done
}

func TestAppendGroupsRoundTrip(t *testing.T) {
	leader := newWAL(t, false)
	commitN(t, leader, 1, 3)
	commitN(t, leader, 2, 2)
	c := leader.Cursor(1)
	batch, err := c.Read(100)
	if err != nil {
		t.Fatal(err)
	}

	follower := newWAL(t, false)
	fresh, err := follower.AppendGroups(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(batch) {
		t.Fatalf("appended %d records, want %d", len(fresh), len(batch))
	}
	if follower.AppendedLSN() != leader.AppendedLSN() {
		t.Fatalf("follower appended LSN %d, leader %d", follower.AppendedLSN(), leader.AppendedLSN())
	}

	// Byte-identical logs: shipping preserves the on-disk encoding.
	lr, _ := leader.ReadAll()
	fr, _ := follower.ReadAll()
	if len(lr) != len(fr) {
		t.Fatalf("log lengths differ: %d vs %d", len(lr), len(fr))
	}
	for i := range lr {
		if lr[i].LSN != fr[i].LSN || lr[i].Txn != fr[i].Txn || lr[i].Op != fr[i].Op ||
			lr[i].RID != fr[i].RID || !bytes.Equal(lr[i].Data, fr[i].Data) {
			t.Fatalf("record %d differs: %+v vs %+v", i, lr[i], fr[i])
		}
	}

	// Re-delivery of the same batch is a no-op (reconnect overlap).
	fresh, err = follower.AppendGroups(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 0 {
		t.Fatalf("duplicate delivery appended %d records, want 0", len(fresh))
	}
}

func TestAppendGroupsRejectsPartialBatch(t *testing.T) {
	leader := newWAL(t, false)
	commitN(t, leader, 1, 2)
	c := leader.Cursor(1)
	batch, err := c.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	follower := newWAL(t, false)
	if _, err := follower.AppendGroups(batch[:len(batch)-1]); err == nil {
		t.Fatal("AppendGroups accepted a batch without a commit marker")
	}
}

func TestReadOnlyWALRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ro.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, w, 1, 2)
	w.Close()

	ro, err := Open(path, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.BeginTxn(7); err != nil {
		t.Fatal(err)
	}
	logInsert(ro, storage.RID{Page: 1}, []byte("x"))
	if err := ro.Commit(); err == nil {
		t.Fatal("read-only WAL accepted a commit")
	}
	ro.Abort()
	if err := ro.Checkpoint(); err == nil {
		t.Fatal("read-only WAL accepted a checkpoint")
	}
	if _, err := ro.AppendGroups([]Record{{LSN: 99, Txn: 9, Op: OpCommit}}); err == nil {
		t.Fatal("read-only WAL accepted AppendGroups")
	}
	recs, err := ro.ReadAll()
	if err != nil || len(recs) != 3 {
		t.Fatalf("read-only ReadAll = %d recs, %v", len(recs), err)
	}
}

func TestRecordStreamRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Txn: 1, Op: OpHeapInsert, RID: storage.RID{Page: 3, Slot: 9}, Data: []byte("payload")},
		{LSN: 2, Txn: 1, Op: OpHeapDelete, RID: storage.RID{Page: 3, Slot: 9}},
		{LSN: 3, Txn: 1, Op: OpCommit},
	}
	enc := AppendRecordStream(nil, recs)
	got, rest, err := DecodeRecordStream(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("unexpected %d trailing bytes", len(rest))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Txn != recs[i].Txn || got[i].Op != recs[i].Op ||
			got[i].RID != recs[i].RID || !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}

	// Trailing bytes beyond the stream are handed back for the caller
	// (future protocol fields), not rejected.
	enc2 := append(append([]byte(nil), enc...), 0xAA, 0xBB)
	_, rest, err = DecodeRecordStream(enc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 {
		t.Fatalf("trailing bytes = %d, want 2", len(rest))
	}
}

func TestRecordStreamHostileCounts(t *testing.T) {
	// A count claiming far more records than the payload could hold must
	// fail fast instead of allocating.
	var b []byte
	b = appendUvarintForTest(b, 1<<40)
	if _, _, err := DecodeRecordStream(b); err == nil {
		t.Fatal("hostile count accepted")
	}
	// Data length overrunning the payload.
	recs := []Record{{LSN: 1, Txn: 1, Op: OpHeapInsert, Data: []byte("abc")}}
	enc := AppendRecordStream(nil, recs)
	if _, _, err := DecodeRecordStream(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated data accepted")
	}
}

func appendUvarintForTest(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
