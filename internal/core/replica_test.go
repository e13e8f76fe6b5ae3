package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/value"
	"tcodm/internal/wal"
)

// openLeader opens a file-backed engine with the test schema and a handful
// of committed transactions.
func openLeader(t *testing.T, path string) *Engine {
	t.Helper()
	e, err := Open(Options{Path: path, TimeIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defineTestSchema(t, e)
	return e
}

func seedLeader(t *testing.T, e *Engine) (value.ID, value.ID) {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	d, err := tx.Insert("Dept", map[string]value.V{
		"name": value.String_("storage"), "budget": value.Int(100),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := tx.Insert("Emp", map[string]value.V{
		"name": value.String_("wk"), "salary": value.Int(4000), "dept": value.Ref(d),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Set(emp, "salary", value.Int(5000), 100); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	return d, emp
}

// shipAll drains every committed record from src's log.
func shipAll(t *testing.T, src *Engine) []wal.Record {
	t.Helper()
	c := src.Log().Cursor(1)
	recs, err := c.Read(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func digestOf(t *testing.T, e *Engine) []byte {
	t.Helper()
	d, err := e.DigestStore()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriterLeaseExcludesSecondWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e := openLeader(t, path)
	defer e.Close()

	if _, err := Open(Options{Path: path}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writable open = %v, want ErrLocked", err)
	}
	// Read-only opens skip the lease and coexist with the writer.
	ro, err := Open(Options{Path: path, ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open alongside writer: %v", err)
	}
	ro.Close()
}

func TestLeaseReleasedOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e := openLeader(t, path)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	e2.Close()
}

func TestReadOnlyRefusesWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e := openLeader(t, path)
	seedLeader(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(Options{Path: path, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Begin(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Begin = %v, want ErrReadOnly", err)
	}
	if err := ro.DefineAtomType(schema.AtomType{Name: "X"}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("DDL = %v, want ErrReadOnly", err)
	}
	if err := ro.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Checkpoint = %v, want ErrReadOnly", err)
	}
	res, err := ro.Query(`SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary >= 5000 AT 150`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].AsInt() != 5000 {
		t.Errorf("read-only query rows = %v", res.Rows)
	}
}

func TestReadOnlyLeavesFilesUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e := openLeader(t, path)
	seedLeader(t, e)
	// Crash, not Close: leave a dirty database whose open requires replay,
	// the worst case for a mode that must not write.
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	walBefore, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}

	ro, err := Open(Options{Path: path, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ro.Recovered {
		t.Error("dirty database did not run recovery in read-only mode")
	}
	res, err := ro.Query(`SELECT (Emp.salary) FROM Emp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows after overlay recovery = %v", res.Rows)
	}
	ro.Close()

	after, _ := os.ReadFile(path)
	walAfter, _ := os.ReadFile(path + ".wal")
	if !bytes.Equal(before, after) {
		t.Error("read-only open modified the data file")
	}
	if !bytes.Equal(walBefore, walAfter) {
		t.Error("read-only open modified the log file")
	}

	// The dirty store is still recoverable by a real writer afterwards.
	w, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Recovered {
		t.Error("writer open after read-only inspection did not recover")
	}
	w.Close()
}

func TestFollowerAppliesAndConverges(t *testing.T) {
	dir := t.TempDir()
	leader := openLeader(t, filepath.Join(dir, "leader"))
	defer leader.Close()
	_, emp := seedLeader(t, leader)

	f, err := Open(Options{Path: filepath.Join(dir, "follower"), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Begin(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Begin = %v, want ErrReadOnly", err)
	}

	recs := shipAll(t, leader)
	wm, err := f.ApplyReplicated(recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := leader.Log().AppendedLSN(); wm != want {
		t.Errorf("watermark = %d, want %d", wm, want)
	}
	if got, want := digestOf(t, f), digestOf(t, leader); !bytes.Equal(got, want) {
		t.Errorf("digest diverged: follower %x leader %x", got, want)
	}

	// Replicated DDL: the follower answers schema-dependent queries.
	res, err := f.Query(`SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary >= 5000 AT 150`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].AsInt() != 5000 {
		t.Errorf("follower query rows = %v", res.Rows)
	}
	st, err := f.StateAt(emp, 50, atom.Now)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vals["salary"].AsInt() != 4000 {
		t.Errorf("follower temporal read = %v", st.Vals["salary"])
	}

	// Re-applying the same batch (reconnect overlap) is a no-op.
	wm2, err := f.ApplyReplicated(recs)
	if err != nil {
		t.Fatal(err)
	}
	if wm2 != wm {
		t.Errorf("duplicate apply moved watermark %d -> %d", wm, wm2)
	}

	// Later commits — including deletes — keep converging.
	tx, err := leader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(emp, 500); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(shipAll(t, leader)); err != nil {
		t.Fatal(err)
	}
	if got, want := digestOf(t, f), digestOf(t, leader); !bytes.Equal(got, want) {
		t.Errorf("digest diverged after delete")
	}
}

func TestFollowerCrashRecoveryKeepsWatermark(t *testing.T) {
	dir := t.TempDir()
	leader := openLeader(t, filepath.Join(dir, "leader"))
	defer leader.Close()
	seedLeader(t, leader)
	want := digestOf(t, leader)

	fpath := filepath.Join(dir, "follower")
	f, err := Open(Options{Path: fpath, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	wm, err := f.ApplyReplicated(shipAll(t, leader))
	if err != nil {
		t.Fatal(err)
	}
	// SIGKILL mid-life: applied groups are in the local log, pages may not
	// have been flushed.
	if err := f.Crash(); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(Options{Path: fpath, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Watermark() != wm {
		t.Errorf("watermark after crash recovery = %d, want %d", f2.Watermark(), wm)
	}
	if got := digestOf(t, f2); !bytes.Equal(got, want) {
		t.Errorf("digest diverged after follower crash recovery")
	}
}

func TestSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	leader := openLeader(t, filepath.Join(dir, "leader"))
	defer leader.Close()
	_, emp := seedLeader(t, leader)

	// Stream a snapshot and split it into what will become the follower's
	// data and archive files (the framing internal/repl's bootstrap uses).
	fpath := filepath.Join(dir, "follower")
	var out bytes.Buffer
	var startLSN, size uint64
	digest, err := leader.Snapshot(func(s, n uint64) error {
		startLSN, size = s, n
		return nil
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw := out.Bytes()
	if uint64(len(raw)) != size {
		t.Fatalf("snapshot size promised %d, wrote %d", size, len(raw))
	}
	if len(digest) != 32 {
		t.Fatalf("digest length %d", len(digest))
	}
	devBytes := binary.BigEndian.Uint64(raw[:8])
	if err := os.WriteFile(fpath, raw[8:8+devBytes], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fpath+".arc", raw[8+devBytes:], 0o644); err != nil {
		t.Fatal(err)
	}

	// Commit past the snapshot point, then bring the follower up from the
	// snapshot plus the log suffix.
	tx, err := leader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(emp, "salary", value.Int(6000), 200); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	f, err := Open(Options{Path: fpath, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Watermark() != startLSN-1 {
		t.Errorf("bootstrap watermark = %d, want %d", f.Watermark(), startLSN-1)
	}

	c := leader.Log().Cursor(startLSN)
	recs, err := c.Read(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := digestOf(t, f), digestOf(t, leader); !bytes.Equal(got, want) {
		t.Errorf("snapshot-bootstrapped follower diverged")
	}
	st, err := f.StateAt(emp, 250, atom.Now)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vals["salary"].AsInt() != 6000 {
		t.Errorf("post-snapshot commit not visible: %v", st.Vals["salary"])
	}
}

func TestSnapshotTruncationGapsOtherCursors(t *testing.T) {
	dir := t.TempDir()
	leader := openLeader(t, filepath.Join(dir, "leader"))
	defer leader.Close()
	seedLeader(t, leader)

	c := leader.Log().Cursor(1)
	// Snapshot checkpoints, truncating the log out from under the cursor.
	if _, err := leader.Snapshot(func(s, n uint64) error { return nil }, discard{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(10); !errors.Is(err, wal.ErrGap) {
		t.Fatalf("stale cursor after snapshot = %v, want ErrGap", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// stripPageExact rewrites the meta page of the closed store at path as the
// version before page-exact redo wrote it: without the page_exact mark.
func stripPageExact(t *testing.T, path string) {
	t.Helper()
	dev, err := storage.OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	pool := storage.NewBufferPool(dev, 4)
	payload, clean, err := storage.ReadMeta(pool)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(payload, &meta); err != nil {
		t.Fatal(err)
	}
	if meta["page_exact"] != true {
		t.Fatalf("%s: meta carries no page_exact mark: %s", path, payload)
	}
	delete(meta, "page_exact")
	if payload, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteMeta(pool, payload, clean); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPreviousFollowerRefused is the follower half of the upgrade rule. A
// follower store the previous version wrote has pages of its own placing,
// so the leader's page-exact records must never reach it: a follower open
// is refused with the typed error naming the remedy, before anything is
// replayed. The leader it followed opens as before, and a follower
// bootstrapped again from its snapshot is accepted and converges.
func TestPreviousFollowerRefused(t *testing.T) {
	dir := t.TempDir()
	lpath, fpath := filepath.Join(dir, "leader"), filepath.Join(dir, "follower")
	leader := openLeader(t, lpath)
	_, emp := seedLeader(t, leader)
	f, err := Open(Options{Path: fpath, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(shipAll(t, leader)); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{f, leader} {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stripPageExact(t, fpath)
	stripPageExact(t, lpath)

	data, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: fpath, Follower: true}); !errors.Is(err, ErrFollowerLayout) {
		t.Fatalf("follower open of a previous-version follower store = %v, want ErrFollowerLayout", err)
	}
	if got, _ := os.ReadFile(fpath); !bytes.Equal(got, data) {
		t.Error("refused open changed the data file")
	}

	// The remedy: a fresh snapshot of the (upgraded) leader.
	leader, err = Open(Options{Path: lpath})
	if err != nil {
		t.Fatalf("leader written by the previous version: %v", err)
	}
	defer leader.Close()
	for _, suffix := range []string{"", ".wal", ".arc"} {
		if err := os.Remove(fpath + suffix); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	var start uint64
	if _, err := leader.Snapshot(func(s, _ uint64) error { start = s; return nil }, &out); err != nil {
		t.Fatal(err)
	}
	raw := out.Bytes()
	n := binary.BigEndian.Uint64(raw[:8])
	if err := os.WriteFile(fpath, raw[8:8+n], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fpath+".arc", raw[8+n:], 0o644); err != nil {
		t.Fatal(err)
	}
	tx, err := leader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(emp, "salary", value.Int(6000), 200); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if f, err = Open(Options{Path: fpath, Follower: true}); err != nil {
		t.Fatalf("follower bootstrapped from a snapshot: %v", err)
	}
	defer f.Close()
	recs, err := leader.Log().Cursor(start).Read(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(digestOf(t, f), digestOf(t, leader)) {
		t.Error("re-bootstrapped follower diverged from the leader")
	}
}
