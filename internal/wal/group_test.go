package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tcodm/internal/obs"
	"tcodm/internal/storage"
)

// gatedFile is a log file whose Sync, while gated, announces itself on
// entered and then blocks until the test sends it a verdict on release: nil
// syncs, an error fails the sync without syncing. Ungated it passes
// straight through; a delay slows every sync.
type gatedFile struct {
	*os.File
	mu      sync.Mutex
	gated   bool
	delay   time.Duration
	entered chan struct{}
	release chan error
}

func newGatedFile(t *testing.T) (*gatedFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gated.wal")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return &gatedFile{File: f, entered: make(chan struct{}, 16), release: make(chan error)}, path
}

func (g *gatedFile) gate(on bool) {
	g.mu.Lock()
	g.gated = on
	g.mu.Unlock()
}

func (g *gatedFile) Sync() error {
	g.mu.Lock()
	gated, delay := g.gated, g.delay
	g.mu.Unlock()
	time.Sleep(delay)
	if gated {
		g.entered <- struct{}{}
		if err := <-g.release; err != nil {
			return err
		}
	}
	return g.File.Sync()
}

// appendOne appends one single-record commit group as transaction txn and
// returns its commit LSN. The caller serializes appends.
func appendOne(t *testing.T, w *WAL, txn uint64) uint64 {
	t.Helper()
	if err := w.BeginTxn(txn); err != nil {
		t.Fatal(err)
	}
	logInsert(w, storage.RID{Page: 1, Slot: uint16(txn)}, []byte("group"))
	lsn, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestGroupCommitSharesFsyncs runs 8 committers of 200 commits each, their
// appends serialized by a caller lock as the engine's lock serializes them
// and their durability waits concurrent. Every wait must return with its
// commit durable, and waiters must share fsyncs.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	const committers, perCommitter = 8, 200
	g, _ := newGatedFile(t)
	g.delay = 200 * time.Microsecond // a device slow enough for waiters to pile up
	w := OpenFile(g, 0, Options{SyncOnCommit: true})
	defer w.Close()
	reg := obs.New()
	w.SetMetrics(reg)
	var appendMu sync.Mutex
	next := uint64(1)
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				appendMu.Lock()
				if err := w.BeginTxn(next); err != nil {
					appendMu.Unlock()
					t.Error(err)
					return
				}
				next++
				logInsert(w, storage.RID{Page: 1}, []byte("x"))
				lsn, err := w.Commit()
				appendMu.Unlock()
				if err == nil {
					err = w.WaitDurable(lsn)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if d := w.durable.Load(); d < lsn {
					t.Errorf("WaitDurable(%d) returned with durable = %d", lsn, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	commits := uint64(committers * perCommitter)
	fsyncs := reg.Counters()["wal.fsyncs"]
	if fsyncs == 0 || fsyncs >= commits {
		t.Fatalf("wal.fsyncs = %d for %d commits, want 0 < fsyncs < commits", fsyncs, commits)
	}
	t.Logf("%d commits shared %d fsyncs", commits, fsyncs)
}

// TestFailedSyncIsSticky fails one sync under two waiters: both get
// ErrLogFailed wrapping the cause, and so does everything after it that
// needs the log — BeginTxn, EnsureDurable, a checkpoint. A commit durable
// before the failure stays durable.
func TestFailedSyncIsSticky(t *testing.T) {
	g, _ := newGatedFile(t)
	w := OpenFile(g, 0, Options{SyncOnCommit: true})
	defer w.Close()
	defer close(g.release) // unblock a gated sync if the test fails early
	early := appendOne(t, w, 1)
	if err := w.WaitDurable(early); err != nil {
		t.Fatal(err)
	}

	g.gate(true)
	a := appendOne(t, w, 2)
	errs := make(chan error, 2)
	go func() { errs <- w.WaitDurable(a) }()
	<-g.entered // the first waiter is the syncer, blocked in Sync
	b := appendOne(t, w, 3)
	go func() { errs <- w.WaitDurable(b) }()
	cause := errors.New("device lost the write")
	g.release <- cause
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrLogFailed) || !errors.Is(err, cause) {
			t.Fatalf("waiter %d: %v, want ErrLogFailed wrapping the cause", i, err)
		}
	}
	if err := w.BeginTxn(4); !errors.Is(err, ErrLogFailed) {
		t.Errorf("BeginTxn after a failed sync: %v", err)
	}
	if err := w.EnsureDurable(b); !errors.Is(err, ErrLogFailed) {
		t.Errorf("EnsureDurable after a failed sync: %v", err)
	}
	if err := w.Checkpoint(); !errors.Is(err, ErrLogFailed) {
		t.Errorf("Checkpoint after a failed sync: %v", err)
	}
	if err := w.Err(); !errors.Is(err, ErrLogFailed) {
		t.Errorf("Err() = %v", err)
	}
	if err := w.WaitDurable(early); err != nil {
		t.Errorf("a commit durable before the failure: %v", err)
	}
}

// TestCloseTrimsZeroTail checks that a sync-on-commit log runs a zero-filled
// chunk past its append point while open, and that Close trims the file to
// its logical end.
func TestCloseTrimsZeroTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trim.wal")
	w, err := Open(path, Options{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	lsn := appendOne(t, w, 1)
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	logical := w.Size()
	if got := fileSize(t, path); got != zeroChunk {
		t.Fatalf("open log file is %d bytes, want one zero-filled chunk (%d)", got, zeroChunk)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != logical {
		t.Fatalf("closed log file is %d bytes, want its logical size %d", got, logical)
	}
	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if recs, err := w2.ReadAll(); err != nil || len(recs) != 2 {
		t.Fatalf("reopened log: %d records, %v; want 2", len(recs), err)
	}
}

// TestTornBytesExcludeZeroTail crashes a sync-on-commit log with its zero
// tail in place: recovery truncates the tail but does not count it as torn.
// Non-zero garbage written into the tail still counts, byte for byte.
func TestTornBytesExcludeZeroTail(t *testing.T) {
	for _, garbage := range []int{0, 10} {
		path := filepath.Join(t.TempDir(), "crash.wal")
		w, err := Open(path, Options{SyncOnCommit: true})
		if err != nil {
			t.Fatal(err)
		}
		lsn := appendOne(t, w, 1)
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		logical := w.Size()
		if garbage > 0 {
			junk := make([]byte, garbage)
			for i := range junk {
				junk[i] = 0xA5
			}
			if _, err := w.f.WriteAt(junk, logical); err != nil {
				t.Fatal(err)
			}
		}
		w.f.Close() // crash: no trim
		w2, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs, stats, err := w2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || stats.TornBytes != int64(garbage) {
			t.Errorf("garbage %d: recovered %d records, TornBytes %d; want 2 and %d", garbage, len(recs), stats.TornBytes, garbage)
		}
		w2.Close()
		if got := fileSize(t, path); got != logical {
			t.Errorf("garbage %d: recovered log file is %d bytes, want %d", garbage, got, logical)
		}
	}
}

// TestCursorShipsOnlyDurable holds a commit's sync open and checks that a
// cursor does not return the appended group until the sync completes.
func TestCursorShipsOnlyDurable(t *testing.T) {
	g, _ := newGatedFile(t)
	w := OpenFile(g, 0, Options{SyncOnCommit: true})
	defer w.Close()
	defer close(g.release) // unblock a gated sync if the test fails early
	c := w.Cursor(1)
	first := appendOne(t, w, 1)
	if err := w.WaitDurable(first); err != nil {
		t.Fatal(err)
	}
	if recs, err := c.Read(100); err != nil || len(recs) != 2 {
		t.Fatalf("durable group: %d records, %v; want 2", len(recs), err)
	}

	g.gate(true)
	second := appendOne(t, w, 2)
	done := make(chan error, 1)
	go func() { done <- w.WaitDurable(second) }()
	<-g.entered
	if recs, err := c.Read(100); err != nil || len(recs) != 0 {
		t.Fatalf("appended but not durable: cursor returned %d records, %v", len(recs), err)
	}
	watch := w.AppendWatch()
	g.release <- nil
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case <-watch:
	case <-time.After(5 * time.Second):
		t.Fatal("AppendWatch did not fire when the group became durable")
	}
	recs, err := c.Read(100)
	if err != nil || len(recs) != 2 || recs[1].LSN != second {
		t.Fatalf("after the sync: %d records, %v; want the second group", len(recs), err)
	}
}
