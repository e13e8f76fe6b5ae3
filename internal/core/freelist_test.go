package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// The free list is derived at every open from what the pages say they
// are; these tests pin that it survives any size, crashes, promotion and
// a stale persisted list, and that reusing a resident free page is safe.

// openDocs opens a file-backed store whose one atom type, Doc, has a
// temporal string body, large enough to spill into overflow chains.
func openDocs(t *testing.T, opts core.Options) *core.Engine {
	t.Helper()
	e, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Schema().AtomType("Doc"); !ok {
		if err := e.DefineAtomType(schema.AtomType{Name: "Doc", Attrs: []schema.Attribute{
			{Name: "body", Kind: value.KindString, Temporal: true},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// body is a deterministic n-byte string tagged with tag.
func body(tag string, n int) string {
	s := strings.Repeat(tag+".", n/(len(tag)+1)+1)
	return s[:n]
}

// writeDocs commits body(i) for every i in groups of 50 per transaction:
// a new Doc when ids[i] is 0, else a rewrite of its body from valid time
// 0 on, which closes the old belief for Vacuum to purge.
func writeDocs(t *testing.T, e *core.Engine, ids []value.ID, body func(i int) string) {
	t.Helper()
	for lo := 0; lo < len(ids); lo += 50 {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < min(lo+50, len(ids)); i++ {
			v := value.String_(body(i))
			if ids[i] == 0 {
				ids[i], err = tx.Insert("Doc", map[string]value.V{"body": v}, 0)
			} else {
				err = tx.Set(ids[i], "body", v, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkDocs reads every Doc's current body back.
func checkDocs(t *testing.T, e *core.Engine, ids []value.ID, body func(i int) string) {
	t.Helper()
	for i, id := range ids {
		st, err := e.StateAt(id, 0, atom.Now)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if got := st.Vals["body"].AsString(); got != body(i) {
			t.Fatalf("doc %d: body of %d bytes differs from the %d written", i, len(got), len(body(i)))
		}
	}
}

// shrinkDocs rewrites every Doc with a short body and vacuums the old
// beliefs, so each record drops its overflow chain.
func shrinkDocs(t *testing.T, e *core.Engine, ids []value.ID) {
	t.Helper()
	writeDocs(t, e, ids, func(i int) string { return "short" })
	if _, err := e.Vacuum(e.Now()); err != nil {
		t.Fatal(err)
	}
}

// freeSet is e's free list, sorted.
func freeSet(e *core.Engine) []storage.PageID {
	free := e.Pool().FreePages()
	slices.Sort(free)
	return free
}

// TestResidentFreePageGetsOneFrame reuses free pages that the open scan
// left resident in the pool. Allocating such a page must take its frame:
// a second frame for it lets the clock's eviction of the stale one unmap
// the live one, and later reads see old bytes.
func TestResidentFreePageGetsOneFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e := openDocs(t, core.Options{Path: path, Strategy: atom.StrategyEmbedded})
	ids := make([]value.ID, 40)
	writeDocs(t, e, ids, func(i int) string { return body(fmt.Sprint("v0-", i), 7000) })
	for r := 1; r <= 8; r++ {
		writeDocs(t, e, ids, func(i int) string { return body(fmt.Sprint("v", r, "-", i), 7000) })
	}
	if _, err := e.Vacuum(e.Now()); err != nil {
		t.Fatal(err)
	}
	if free := len(e.Pool().FreePages()); free < 400 {
		t.Fatalf("only %d free pages before close; the test needs a pool full of them", free)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := core.Open(core.Options{Path: path, PoolPages: 700})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 30; r++ {
		sizes := make([]int, len(ids))
		for i := range sizes {
			sizes[i] = 3000 + rng.Intn(2001)
		}
		cur := func(i int) string { return body(fmt.Sprint("r", r, "-", i), sizes[i]) }
		writeDocs(t, e, ids, cur)
		checkDocs(t, e, ids, cur)
	}
}

// TestCheckpointWithManyFreePages checkpoints, closes and reopens a store
// with more than 10 000 free pages: nothing about the free list is
// persisted, and the reopened list is the same set.
func TestCheckpointWithManyFreePages(t *testing.T) {
	if testing.Short() {
		t.Skip("writes an 80 MB store")
	}
	path := filepath.Join(t.TempDir(), "db")
	e := openDocs(t, core.Options{Path: path, Strategy: atom.StrategyEmbedded})
	ids := make([]value.ID, 1000)
	big := func(i int) string { return body(fmt.Sprint("doc", i), 80000) }
	writeDocs(t, e, ids, big)
	shrinkDocs(t, e, ids)
	before := freeSet(e)
	if len(before) < 10000 {
		t.Fatalf("only %d free pages; the test needs 10 000", len(before))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with %d free pages: %v", len(before), err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close with %d free pages: %v", len(before), err)
	}
	e, err := core.Open(core.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if after := freeSet(e); !slices.Equal(after, before) {
		t.Fatalf("reopened with %d free pages, closed with %d", len(after), len(before))
	}
	checkDocs(t, e, ids, func(i int) string { return "short" })
}

// personnelS is the scan benchmark's personnel store at full size.
var personnelS = workload.PersonnelParams{Depts: 16, Emps: 800, UpdatesPerEmp: 30, MovesPerEmp: 2, TimeStep: 10, Seed: 1}

// loadPersonnel opens a store with opts and commits the personnel
// workload p, 256 operations a transaction; it returns the surrogates the
// workload created, departments first.
func loadPersonnel(t *testing.T, opts core.Options, p workload.PersonnelParams) (*core.Engine, []value.ID) {
	t.Helper()
	e, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := workload.PersonnelSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Install(e, sch); err != nil {
		t.Fatal(err)
	}
	app := workload.NewEngineApplier(e, 256)
	ids, err := workload.Apply(workload.Personnel(p), app)
	if err == nil {
		err = app.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return e, ids
}

// TestCrashCyclesKeepDeviceFlat crashes and reopens a personnel store
// with both optional indexes five times, 20 commits a cycle. Each unclean
// open rebuilds the indexes into the pages the old ones held, so after the
// first reopen the device grows by no more than the commits' own data (a
// few tuple snapshots), where a leaked copy of the indexes is about a
// thousand pages.
func TestCrashCyclesKeepDeviceFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads personnel-S three times")
	}
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db")
			opts := core.Options{Path: path, Strategy: strat, TimeIndex: true, ValueIndex: true}
			e, ids := loadPersonnel(t, opts, personnelS)
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			emps := ids[personnelS.Depts:]
			var acks []ack
			var pages []storage.PageID
			for cycle := 0; cycle < 5; cycle++ {
				for i := 0; i < 20; i++ {
					a := ack{emp: emps[(cycle*20+i)*7%len(emps)], from: temporal.Instant(2000 + cycle*20 + i), val: int64(cycle*100 + i)}
					tx, err := e.Begin()
					if err != nil {
						t.Fatal(err)
					}
					if err := tx.Set(a.emp, "salary", value.Int(a.val), a.from); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					acks = append(acks, a)
				}
				if err := e.Crash(); err != nil {
					t.Fatal(err)
				}
				var err error
				if e, err = core.Open(opts); err != nil {
					t.Fatalf("reopen %d: %v", cycle+1, err)
				}
				pages = append(pages, e.Stats().DevicePags)
			}
			defer e.Close()
			verifyAcks(t, e, acks)
			t.Logf("device after each reopen: %v pages", pages)
			for i := 1; i < len(pages); i++ {
				if pages[i] > pages[i-1]+10 {
					t.Fatalf("device after each reopen: %v pages; reopen %d grew it", pages, i+1)
				}
			}
		})
	}
}

// TestFreedPagesReusedAfterCrash frees overflow chains in committed
// transactions, crashes before any checkpoint, and rewrites as much after
// recovery: the rewrite fills the freed pages instead of growing the file.
func TestFreedPagesReusedAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	opts := core.Options{Path: path, Strategy: atom.StrategyEmbedded, SyncOnCommit: true}
	e := openDocs(t, opts)
	ids := make([]value.ID, 100)
	big := func(i int) string { return body(fmt.Sprint("doc", i), 30000) }
	writeDocs(t, e, ids, big)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shrinkDocs(t, e, ids)
	freed := len(e.Pool().FreePages())
	if freed < 300 {
		t.Fatalf("only %d pages freed before the crash", freed)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e = openDocs(t, opts)
	defer e.Close()
	if !e.Recovered {
		t.Fatal("reopen after the crash did not recover")
	}
	size := e.Stats().DevicePags
	writeDocs(t, e, ids, big)
	checkDocs(t, e, ids, big)
	if grown := e.Stats().DevicePags; grown > size {
		t.Fatalf("rewriting the freed pages grew the device from %d to %d pages", size, grown)
	}
}

// TestPromoteReusesSnapshotPages promotes a follower bootstrapped from a
// snapshot: the indexes it builds into the store take the snapshot's old
// index pages, and the chains no record reaches are free for new data.
func TestPromoteReusesSnapshotPages(t *testing.T) {
	dir := t.TempDir()
	lpath, fpath := filepath.Join(dir, "leader"), filepath.Join(dir, "follower")
	leader := openDocs(t, core.Options{Path: lpath, Strategy: atom.StrategyEmbedded})
	defer leader.Close()
	ids := make([]value.ID, 300)
	big := func(i int) string { return body(fmt.Sprint("doc", i), 20000) }
	writeDocs(t, leader, ids, big)
	shrinkDocs(t, leader, ids[:100])
	snapshotTo(t, leader, fpath)
	f, err := core.Open(core.Options{Path: fpath, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size := f.Stats().DevicePags
	if _, err := f.Promote(0); err != nil {
		t.Fatal(err)
	}
	if grown := f.Stats().DevicePags; grown > size {
		t.Fatalf("promotion grew the device from %d to %d pages", size, grown)
	}
	if free := len(f.Pool().FreePages()); free < 200 {
		t.Fatalf("%d pages free after promotion; the snapshot has 100 unreachable chains", free)
	}
	writeDocs(t, f, ids[:100], big)
	checkDocs(t, f, ids, big)
	if grown := f.Stats().DevicePags; grown > size {
		t.Fatalf("rewriting the unreachable chains grew the device from %d to %d pages", size, grown)
	}
}

// TestStaleFreeListInMetaIgnored opens a store whose meta payload carries
// a free_pages list, as stores written before the list was derived do,
// naming every live page. The list must be ignored: no live page may be
// handed out.
func TestStaleFreeListInMetaIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e := openDocs(t, core.Options{Path: path, Strategy: atom.StrategySeparated, TimeIndex: true})
	ids := make([]value.ID, 60)
	big := func(i int) string { return body(fmt.Sprint("doc", i), 12000) }
	writeDocs(t, e, ids, big)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	dev, err := storage.OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(dev, 16)
	payload, clean, err := storage.ReadMeta(pool)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(payload, &meta); err != nil {
		t.Fatal(err)
	}
	var live []storage.PageID
	for id := storage.PageID(1); id < dev.NumPages(); id++ {
		live = append(live, id)
	}
	meta["free_pages"] = live
	if payload, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteMeta(pool, payload, clean); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	e = openDocs(t, core.Options{Path: path})
	defer e.Close()
	if free := e.Pool().FreePages(); len(free) != 0 {
		t.Fatalf("open took %d free pages from a store with none, first %d", len(free), free[0])
	}
	more := make([]value.ID, 60)
	writeDocs(t, e, more, big)
	writeDocs(t, e, ids, func(i int) string { return body(fmt.Sprint("new", i), 12000) })
	checkDocs(t, e, more, big)
	checkDocs(t, e, ids, func(i int) string { return body(fmt.Sprint("new", i), 12000) })
}

// TestUncleanOpenIsDeterministic crashes a personnel store with both
// optional indexes and opens two copies of it: each open replays the log
// and rebuilds the indexes, and once both close their store files must be
// byte-equal. The rebuilt trees' pages are a function of the heap alone,
// not of map order, and so is every later placement in the pages they
// share with the heap.
func TestUncleanOpenIsDeterministic(t *testing.T) {
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := core.Options{Path: filepath.Join(dir, "db"), Strategy: strat, TimeIndex: true, ValueIndex: true}
			e, _ := loadPersonnel(t, opts, workload.DefaultPersonnel())
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			var stores [2][]byte
			for i := range stores {
				copyOpts := opts
				copyOpts.Path = filepath.Join(dir, fmt.Sprint("copy", i))
				for _, ext := range []string{"", ".wal", ".arc"} {
					data, err := os.ReadFile(opts.Path + ext)
					if err == nil {
						err = os.WriteFile(copyOpts.Path+ext, data, 0o644)
					}
					if err != nil && !errors.Is(err, fs.ErrNotExist) {
						t.Fatal(err)
					}
				}
				e, err := core.Open(copyOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !e.Recovered {
					t.Fatal("the copy of the crashed store opened clean")
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if stores[i], err = os.ReadFile(copyOpts.Path); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(stores[0], stores[1]) {
				differ := 0
				for off := 0; off < min(len(stores[0]), len(stores[1])); off += storage.PageSize {
					end := min(off+storage.PageSize, len(stores[0]), len(stores[1]))
					if !bytes.Equal(stores[0][off:end], stores[1][off:end]) {
						differ++
					}
				}
				t.Fatalf("two opens of one crashed store closed to different files: %d and %d bytes, %d pages differ",
					len(stores[0]), len(stores[1]), differ)
			}
		})
	}
}
