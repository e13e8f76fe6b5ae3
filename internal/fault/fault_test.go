package fault

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tcodm/internal/storage"
	"tcodm/internal/wal"
)

// pageImage builds a full page of the given fill byte.
func pageImage(fill byte) []byte {
	buf := make([]byte, storage.PageSize)
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// driveScript runs a fixed I/O sequence against a scripted device and
// returns the final report plus the inner device contents.
func driveScript(t *testing.T, script Script) (Report, *storage.MemDevice) {
	t.Helper()
	inner := storage.NewMemDevice()
	inj := NewInjector(script)
	dev := NewDevice(inj, inner)
	buf := make([]byte, storage.PageSize)
	for i := 0; i < 6; i++ {
		_ = dev.WritePage(storage.PageID(i), pageImage(byte('A'+i)))
		if i%2 == 1 {
			_ = dev.Sync()
		}
		_ = dev.ReadPage(storage.PageID(i), buf)
	}
	_ = dev.Sync()
	return inj.Report(), inner
}

func TestInjectorDeterministicReplay(t *testing.T) {
	script := Script{CutAtOp: 7, TearWrite: true, TearBytes: 100}
	r1, _ := driveScript(t, script)
	r2, _ := driveScript(t, script)
	if r1 != r2 {
		t.Errorf("same script, different reports:\n  %+v\n  %+v", r1, r2)
	}
	if !r1.Cut || r1.CutOp != 7 {
		t.Errorf("cut did not fire at op 7: %+v", r1)
	}
}

func TestCutKillsAllLaterIO(t *testing.T) {
	inner := storage.NewMemDevice()
	inj := NewInjector(Script{CutAtOp: 2})
	dev := NewDevice(inj, inner)
	if err := dev.WritePage(0, pageImage(0x11)); err != nil {
		t.Fatalf("pre-cut write: %v", err)
	}
	if err := dev.WritePage(1, pageImage(0x22)); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut write: %v, want ErrPowerCut", err)
	}
	buf := make([]byte, storage.PageSize)
	if err := dev.ReadPage(0, buf); !errors.Is(err, ErrPowerCut) {
		t.Errorf("post-cut read: %v, want ErrPowerCut", err)
	}
	if err := dev.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Errorf("post-cut sync: %v, want ErrPowerCut", err)
	}
	if !inj.Cut() {
		t.Error("injector does not report the cut")
	}
}

func TestTornWriteMergesPrefixOverOldContent(t *testing.T) {
	inner := storage.NewMemDevice()
	inj := NewInjector(Script{CutAtOp: 2, TearWrite: true, TearBytes: 512})
	dev := NewDevice(inj, inner)
	if err := dev.WritePage(0, pageImage(0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := dev.WritePage(0, pageImage(0xBB)); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut write: %v", err)
	}
	got := make([]byte, storage.PageSize)
	if err := inner.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	want := pageImage(0xAA)
	copy(want[:512], pageImage(0xBB)[:512])
	if !bytes.Equal(got, want) {
		t.Error("torn page is not new-prefix-over-old-content")
	}
	if r := inj.Report(); r.TornPage != 0 {
		t.Errorf("TornPage = %d, want 0", r.TornPage)
	}
	// A page torn this way must fail checksum verification — that is what
	// recovery's quarantine sweep keys on.
	if storage.VerifyPageChecksum(0, got) == nil {
		t.Error("torn half-and-half page passes checksum verification")
	}
}

func TestBufferedWritesInvisibleUntilSync(t *testing.T) {
	inner := storage.NewMemDevice()
	inj := NewInjector(Script{Buffered: true})
	dev := NewDevice(inj, inner)
	if err := dev.WritePage(0, pageImage(0x33)); err != nil {
		t.Fatal(err)
	}
	if inner.NumPages() != 0 {
		t.Errorf("staged write reached the device: inner has %d pages", inner.NumPages())
	}
	if dev.NumPages() != 1 {
		t.Errorf("wrapper NumPages = %d, want 1 (logical size includes staged growth)", dev.NumPages())
	}
	buf := make([]byte, storage.PageSize)
	if err := dev.ReadPage(0, buf); err != nil || buf[0] != 0x33 {
		t.Errorf("read-your-writes through staging failed: %v, buf[0]=%#x", err, buf[0])
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	if inner.NumPages() != 1 {
		t.Fatalf("sync did not land the staged page")
	}
	if err := inner.ReadPage(0, buf); err != nil || buf[0] != 0x33 {
		t.Errorf("device content after sync: %v, buf[0]=%#x", err, buf[0])
	}
}

func TestBufferedCutAtSyncDropsStaged(t *testing.T) {
	inner := storage.NewMemDevice()
	// Ops: three writes then the sync = op 4.
	inj := NewInjector(Script{Buffered: true, CutAtOp: 4})
	dev := NewDevice(inj, inner)
	for i := 0; i < 3; i++ {
		if err := dev.WritePage(storage.PageID(i), pageImage(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut sync: %v", err)
	}
	if inner.NumPages() != 0 {
		t.Errorf("cut sync landed pages: inner has %d", inner.NumPages())
	}
	if r := inj.Report(); r.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", r.Dropped)
	}
}

func TestBufferedCutAtSyncAppliesPrefix(t *testing.T) {
	inner := storage.NewMemDevice()
	inj := NewInjector(Script{Buffered: true, CutAtOp: 4, SyncApply: 2})
	dev := NewDevice(inj, inner)
	for i := 0; i < 3; i++ {
		if err := dev.WritePage(storage.PageID(i), pageImage(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut sync: %v", err)
	}
	// The first two staged writes were in flight and landed; the third died.
	if inner.NumPages() != 2 {
		t.Fatalf("inner has %d pages, want 2", inner.NumPages())
	}
	buf := make([]byte, storage.PageSize)
	for i := 0; i < 2; i++ {
		if err := inner.ReadPage(storage.PageID(i), buf); err != nil || buf[0] != byte(i+1) {
			t.Errorf("page %d after partial sync: %v, buf[0]=%#x", i, err, buf[0])
		}
	}
	if r := inj.Report(); r.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", r.Dropped)
	}
}

func TestTransientSyncAndReadErrors(t *testing.T) {
	inner := storage.NewMemDevice()
	inj := NewInjector(Script{SyncErrAt: 1, ReadErrAt: 2})
	dev := NewDevice(inj, inner)
	if err := dev.WritePage(0, pageImage(0x44)); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first sync: %v, want ErrInjected", err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatalf("second sync must succeed: %v", err)
	}
	buf := make([]byte, storage.PageSize)
	if err := dev.ReadPage(0, buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if err := dev.ReadPage(0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("second read: %v, want ErrInjected", err)
	}
	if err := dev.ReadPage(0, buf); err != nil {
		t.Fatalf("third read must succeed: %v", err)
	}
	r := inj.Report()
	if r.SyncErrs != 1 || r.ReadErrs != 1 || r.Cut {
		t.Errorf("report = %+v, want one sync error, one read error, no cut", r)
	}
}

// openLogFixture returns a fault-wrapped log file over a real temp file.
func openLogFixture(t *testing.T, script Script) (*Injector, *LogFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	inj := NewInjector(script)
	return inj, NewLogFile(inj, f), path
}

func TestLogWritesStagedUntilSync(t *testing.T) {
	_, lf, path := openLogFixture(t, Script{})
	if _, err := lf.WriteAt([]byte("hello "), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := lf.WriteAt([]byte("world"), 6); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); len(got) != 0 {
		t.Errorf("unsynced log bytes reached the file: %q", got)
	}
	// Read-your-writes through the staging layer.
	buf := make([]byte, 11)
	if n, err := lf.ReadAt(buf, 0); err != nil || n != 11 || string(buf) != "hello world" {
		t.Errorf("ReadAt over staging = %d %v %q", n, err, buf)
	}
	if err := lf.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "hello world" {
		t.Errorf("file after sync = %q", got)
	}
}

func TestLogCutAtSyncLosesUnsynced(t *testing.T) {
	// Ops: write, write, sync = op 3.
	_, lf, path := openLogFixture(t, Script{CutAtOp: 3})
	_, _ = lf.WriteAt([]byte("abcdef"), 0)
	_, _ = lf.WriteAt([]byte("ghijkl"), 6)
	if err := lf.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut sync: %v", err)
	}
	if got, _ := os.ReadFile(path); len(got) != 0 {
		t.Errorf("cut sync leaked bytes to the file: %q", got)
	}
}

func TestLogTornSyncLandsStrictPrefix(t *testing.T) {
	inj, lf, path := openLogFixture(t, Script{CutAtOp: 3, TearWrite: true, TearBytes: 8})
	_, _ = lf.WriteAt([]byte("abcdef"), 0)
	_, _ = lf.WriteAt([]byte("ghijkl"), 6)
	if err := lf.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut sync: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "abcdefgh" {
		t.Errorf("torn log = %q, want the first 8 bytes", got)
	}
	if !inj.Report().TornLog {
		t.Error("TornLog not reported")
	}
}

func TestLogTearNeverLandsFullAppend(t *testing.T) {
	// TearBytes beyond the staged total must still land a *strict* prefix:
	// a fully-landed append would be an unacknowledged but durable commit,
	// which the model excludes so "acked" and "durable" stay equivalent.
	_, lf, path := openLogFixture(t, Script{CutAtOp: 2, TearWrite: true, TearBytes: 1 << 20})
	_, _ = lf.WriteAt([]byte("abcdef"), 0)
	if err := lf.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut sync: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "abcde" {
		t.Errorf("torn log = %q, want %q (total-1 bytes)", got, "abcde")
	}
}

// TestWALAbsorbsTornTail drives a real WAL through the fault wrapper,
// tears its last append, and checks that recovery truncates the torn tail
// and replays the committed prefix.
func TestWALAbsorbsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Commit 1 syncs fine (zero-fill, write, sync = ops 1-3); commit 2's
	// sync (op 5) tears mid-append.
	inj := NewInjector(Script{CutAtOp: 5, TearWrite: true, TearBytes: 10})
	w := wal.OpenFile(NewLogFile(inj, f), 0, wal.Options{SyncOnCommit: true})
	if err := w.BeginTxn(1); err != nil {
		t.Fatal(err)
	}
	first := storage.RID{Page: 1, Slot: 0}
	w.LogHeap(&storage.Change{Kind: storage.ChangeInsert, Home: first, Body: first, Data: []byte("first")})
	lsn, err := w.Commit()
	if err == nil {
		err = w.WaitDurable(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginTxn(2); err != nil {
		t.Fatal(err)
	}
	second := storage.RID{Page: 1, Slot: 1}
	w.LogHeap(&storage.Change{Kind: storage.ChangeInsert, Home: second, Body: second, Data: []byte("second")})
	lsn, err = w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); !errors.Is(err, ErrPowerCut) || !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("second commit: %v, want ErrLogFailed from ErrPowerCut", err)
	}
	f.Close()
	if !inj.Report().TornLog {
		t.Fatal("the log tail was not torn")
	}

	w2, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	dev := storage.NewMemDevice()
	bp := storage.NewBufferPool(dev, 8)
	if err := storage.InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	h := storage.NewHeap(bp, nil)
	recs, stats, err := w2.Recover()
	if err != nil {
		t.Fatalf("recovery over torn log: %v", err)
	}
	for _, r := range recs {
		if r.Op == wal.OpCommit {
			continue
		}
		c, err := r.Change()
		if err == nil {
			err = h.Redo(c, r.LSN)
		}
		if err != nil {
			t.Fatalf("redo over torn log: %v", err)
		}
	}
	if stats.TornBytes == 0 {
		t.Error("replay did not truncate a torn tail")
	}
	if got, err := h.Fetch(storage.RID{Page: 1, Slot: 0}); err != nil || string(got) != "first" {
		t.Errorf("committed record: %q, %v", got, err)
	}
	if _, err := h.Fetch(storage.RID{Page: 1, Slot: 1}); err == nil {
		t.Error("record of the torn, unacknowledged commit was replayed")
	}
}
