package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/fault"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/wal"
	"tcodm/internal/workload"
)

// gatedFile is a log file whose Sync, while gated, announces itself on
// entered and then blocks until the test sends a verdict on release: nil
// syncs, an error fails the sync without syncing.
type gatedFile struct {
	*os.File
	mu      sync.Mutex
	gated   bool
	entered chan struct{}
	release chan error
}

func (g *gatedFile) gate(on bool) {
	g.mu.Lock()
	g.gated = on
	g.mu.Unlock()
}

func (g *gatedFile) Sync() error {
	g.mu.Lock()
	gated := g.gated
	g.mu.Unlock()
	if gated {
		g.entered <- struct{}{}
		if err := <-g.release; err != nil {
			return err
		}
	}
	return g.File.Sync()
}

// openGated opens a sync-on-commit store at path whose log runs on a
// gatedFile, with the personnel schema and n employees committed.
func openGated(t *testing.T, path string, n int) (*core.Engine, *gatedFile, []value.ID) {
	t.Helper()
	g := &gatedFile{entered: make(chan struct{}, 16), release: make(chan error)}
	e, err := core.Open(core.Options{
		Path: path, SyncOnCommit: true,
		OpenWAL: func(p string, opts wal.Options) (*wal.WAL, error) {
			f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return nil, err
			}
			info, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, err
			}
			g.File = f
			return wal.OpenFile(g, info.Size(), opts), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, g, installEmps(t, e, n)
}

// installEmps defines the personnel schema and commits n employees with
// salary 0 from valid time 0.
func installEmps(t *testing.T, e *core.Engine, n int) []value.ID {
	t.Helper()
	sch, err := workload.PersonnelSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Install(e, sch); err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var ids []value.ID
	for i := 0; i < n; i++ {
		id, err := tx.Insert("Emp", map[string]value.V{
			"name": value.String_(fmt.Sprintf("e%d", i)), "salary": value.Int(0),
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// setSalary commits one salary assignment.
func setSalary(e *core.Engine, id value.ID, v int64, from temporal.Instant) error {
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	if err := tx.Set(id, "salary", value.Int(v), from); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

func salaryAt(t *testing.T, e *core.Engine, id value.ID, vt temporal.Instant) int64 {
	t.Helper()
	st, err := e.StateAt(id, vt, atom.Now)
	if err != nil {
		t.Fatal(err)
	}
	return st.Vals["salary"].AsInt()
}

// blocked reports whether ch stays empty for a while.
func blocked[T any](ch <-chan T) bool {
	select {
	case <-ch:
		return false
	case <-time.After(50 * time.Millisecond):
		return true
	}
}

// TestGroupCommitPowerCuts runs four committers against one store through
// power cuts at several I/O indices. Each commit sets a pair of employees
// to the same salary from its own valid time; after the cut and a reopen,
// every acknowledged commit must be present and no commit may be present
// on one employee of its pair only.
func TestGroupCommitPowerCuts(t *testing.T) {
	const committers, perCommitter = 4, 30
	dir := t.TempDir()
	build := func(name string) (string, []value.ID) {
		path := filepath.Join(dir, name, "db.tdb")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		e, err := core.Open(core.Options{Path: path, SyncOnCommit: true})
		if err != nil {
			t.Fatal(err)
		}
		ids := installEmps(t, e, 2*committers)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return path, ids
	}
	// run commits concurrently under script and returns each committer's
	// acknowledged valid times and the injector's report.
	run := func(path string, ids []value.ID, script fault.Script) ([][]temporal.Instant, fault.Report) {
		inj := fault.NewInjector(script)
		e, err := core.Open(injected(path, inj))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		acked := make([][]temporal.Instant, committers)
		var wg sync.WaitGroup
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 1; i <= perCommitter; i++ {
					from := temporal.Instant(i)
					tx, err := e.Begin()
					if err != nil {
						return
					}
					err = tx.Set(ids[2*c], "salary", value.Int(int64(i)), from)
					if err == nil {
						err = tx.Set(ids[2*c+1], "salary", value.Int(int64(i)), from)
					}
					if err != nil {
						_ = tx.Abort()
						return
					}
					if tx.Commit() != nil {
						return
					}
					acked[c] = append(acked[c], from)
				}
			}(c)
		}
		wg.Wait()
		if script.CutAtOp == 0 {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			_ = e.Crash()
		}
		return acked, inj.Report()
	}

	probePath, probeIDs := build("probe")
	acked, probe := run(probePath, probeIDs, fault.Script{})
	for c := range acked {
		if len(acked[c]) != perCommitter {
			t.Fatalf("fault-free committer %d acknowledged %d of %d commits", c, len(acked[c]), perCommitter)
		}
	}
	// The I/O count of a run varies with how commits happen to share
	// fsyncs, so the cut points stop short of the probe's count, and a cut
	// that does not fire still leaves a crash to recover from.
	fired := 0
	for k, frac := range []float64{0.1, 0.25, 0.4, 0.55, 0.7} {
		for _, tear := range []bool{false, true} {
			cut := int(frac * float64(probe.Ops))
			name := fmt.Sprintf("cut%d-tear%v", k, tear)
			path, ids := build(name)
			acked, rep := run(path, ids, fault.Script{CutAtOp: cut, TearWrite: tear, TearBytes: 100})
			if rep.Cut {
				fired++
			}
			e, err := core.Open(core.Options{Path: path})
			if err != nil {
				t.Fatalf("%s: reopen: %v", name, err)
			}
			for c := 0; c < committers; c++ {
				for _, from := range acked[c] {
					if got := salaryAt(t, e, ids[2*c], from); got != int64(from) {
						t.Errorf("%s: committer %d's acknowledged commit at vt %d lost: salary %d", name, c, from, got)
					}
				}
				for i := 1; i <= perCommitter; i++ {
					a, b := salaryAt(t, e, ids[2*c], temporal.Instant(i)), salaryAt(t, e, ids[2*c+1], temporal.Instant(i))
					if a != b {
						t.Errorf("%s: committer %d's commit at vt %d is partly present: %d vs %d", name, c, i, a, b)
					}
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fired < 8 {
		t.Fatalf("only %d of 10 cuts fired (probe counted %d ops)", fired, probe.Ops)
	}
}

// injected opens path with the injector's device and log wrappers and
// sync-on-commit.
func injected(path string, inj *fault.Injector) core.Options {
	return core.Options{
		Path: path, SyncOnCommit: true,
		OpenDevice: func(p string) (storage.Device, error) {
			d, err := storage.OpenFileDevice(p)
			if err != nil {
				return nil, err
			}
			return fault.NewDevice(inj, d), nil
		},
		OpenWAL: func(p string, opts wal.Options) (*wal.WAL, error) {
			f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return nil, err
			}
			info, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, err
			}
			return wal.OpenFile(fault.NewLogFile(inj, f), info.Size(), opts), nil
		},
	}
}

// TestReadWaitsForDurability holds a commit's log sync open and checks
// that a read which can see the commit does not return until the sync
// completes — with the new value when it succeeds, with ErrLogFailed when
// it fails.
func TestReadWaitsForDurability(t *testing.T) {
	e, g, ids := openGated(t, filepath.Join(t.TempDir(), "db.tdb"), 1)
	defer e.Crash()
	defer close(g.release) // unblock a gated sync if the test fails early
	id := ids[0]
	read := func() <-chan error {
		ch := make(chan error, 1)
		go func() {
			st, err := e.StateAt(id, 10, atom.Now)
			if err == nil && st.Vals["salary"].AsInt() != 2 {
				err = fmt.Errorf("read salary %v, want 2", st.Vals["salary"])
			}
			ch <- err
		}()
		return ch
	}

	g.gate(true)
	commit := make(chan error, 1)
	go func() { commit <- setSalary(e, id, 2, 1) }()
	<-g.entered
	reader := read()
	if !blocked(reader) {
		t.Fatal("a read returned while the commit it saw was not durable")
	}
	g.release <- nil
	if err := <-commit; err != nil {
		t.Fatal(err)
	}
	if err := <-reader; err != nil {
		t.Fatal(err)
	}

	go func() { commit <- setSalary(e, id, 3, 1) }()
	<-g.entered
	reader = read()
	if !blocked(reader) {
		t.Fatal("a read returned while the commit it saw was not durable")
	}
	g.release <- errors.New("sync failed")
	if err := <-commit; !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("commit over a failed sync: %v, want ErrLogFailed", err)
	}
	if err := <-reader; !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("read of a commit whose sync failed: %v, want ErrLogFailed", err)
	}
}

// TestLogSyncFailureIsFailStop fails one commit's log sync: no later
// commit is acknowledged, Close does not checkpoint (the data file stays
// byte-identical) and returns the failure, and a reopen recovers every
// commit acknowledged before it.
func TestLogSyncFailureIsFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.tdb")
	e, g, ids := openGated(t, path, 2)
	defer close(g.release) // unblock a gated sync if the test fails early
	for i := 1; i <= 20; i++ {
		if err := setSalary(e, ids[i%2], int64(i), temporal.Instant(i)); err != nil {
			t.Fatal(err)
		}
	}

	// The failing commit inserts an employee too big to share a page, so
	// its page follows every dirty page of the acknowledged commits: a
	// checkpoint that ran anyway would flush those before refusing at it.
	g.gate(true)
	commit := make(chan error, 1)
	go func() {
		tx, err := e.Begin()
		if err != nil {
			commit <- err
			return
		}
		if _, err := tx.Insert("Emp", map[string]value.V{
			"name": value.String_("late"), "bio": value.String_(strings.Repeat("b", 6000)),
		}, 100); err != nil {
			_ = tx.Abort()
			commit <- err
			return
		}
		commit <- tx.Commit()
	}()
	<-g.entered
	g.release <- errors.New("sync failed")
	if err := <-commit; !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("commit over a failed sync: %v, want ErrLogFailed", err)
	}
	g.gate(false)
	for i := 0; i < 3; i++ {
		if err := setSalary(e, ids[1], 500, 200); !errors.Is(err, wal.ErrLogFailed) {
			t.Fatalf("commit after the failure: %v, want ErrLogFailed", err)
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("Close over a failed log: %v, want ErrLogFailed", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("Close over a failed log changed the data file")
	}

	e2, err := core.Open(core.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !e2.Recovered {
		t.Fatal("reopen after a failed log did not recover")
	}
	for i := 1; i <= 20; i++ {
		if got := salaryAt(t, e2, ids[i%2], temporal.Instant(i)); got != int64(i) {
			t.Errorf("acknowledged commit %d lost: salary %d", i, got)
		}
	}
	if got := salaryAt(t, e2, ids[1], 200); got == 500 {
		t.Error("a commit refused after the failure is present")
	}
}

// TestFailedDDLCommitDoesNotWedge fails the log sync of a DefineAtomType:
// the DDL returns the failure and a later Begin returns ErrLogFailed
// promptly instead of blocking on a writer slot the DDL never released.
func TestFailedDDLCommitDoesNotWedge(t *testing.T) {
	e, g, _ := openGated(t, filepath.Join(t.TempDir(), "db.tdb"), 1)
	defer e.Crash()
	defer close(g.release) // unblock a gated sync if the test fails early
	g.gate(true)
	ddl := make(chan error, 1)
	go func() {
		ddl <- e.DefineAtomType(schema.AtomType{Name: "Room", Attrs: []schema.Attribute{{Name: "no", Kind: value.KindInt}}})
	}()
	<-g.entered
	g.release <- errors.New("sync failed")
	if err := <-ddl; !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("DDL over a failed sync: %v, want ErrLogFailed", err)
	}
	begin := make(chan error, 1)
	go func() {
		tx, err := e.Begin()
		if err == nil {
			_ = tx.Abort()
		}
		begin <- err
	}()
	select {
	case err := <-begin:
		if !errors.Is(err, wal.ErrLogFailed) {
			t.Fatalf("Begin after a failed DDL commit: %v, want ErrLogFailed", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Begin blocked after a failed DDL commit")
	}
}
