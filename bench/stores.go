package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

const (
	// Every employee gets 30 raises and 2 department moves at valid times
	// 10, 20, ... 320: 32 versions after the hire, valid horizon 330.
	raisesPerEmp = 30
	movesPerEmp  = 2
	timeStep     = 10
	horizon      = temporal.Instant((raisesPerEmp+movesPerEmp)*timeStep + timeStep)
	// nowVT is where set-up parks the engine clock, so that statements
	// without AT slice past every loaded version (a real NOW read: under
	// the separated strategy it never touches history) and proactive
	// updates have room between the horizon and the clock.
	nowVT = temporal.Instant(1000)

	loadBatch = 256
	// fitsPool holds either store whole (64 MiB); coldShare sizes the
	// mixed workloads' pool as a share of the store's pages.
	fitsPool  = 8192
	coldShare = 0.09
)

// storeSpec sizes one personnel store.
type storeSpec struct {
	strategy    atom.Strategy
	depts, emps int
}

// personnelL is the store of the point, write and mixed workloads;
// personnelS (one per strategy) is the scan store. Both have the issue's
// sizes.
func personnelL(scale float64) storeSpec {
	return storeSpec{atom.StrategySeparated, scaled(50, scale), scaled(5000, scale)}
}

func personnelS(st atom.Strategy, scale float64) storeSpec {
	return storeSpec{st, scaled(16, scale), scaled(800, scale)}
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 2 {
		v = 2
	}
	return v
}

// store is one built, cleanly closed personnel database plus everything
// the workloads need to drive and check it.
type store struct {
	spec      storeSpec
	path      string
	deptIDs   []value.ID
	empIDs    []value.ID
	oracle    *oracle
	pages     int
	userBytes int64 // encoded bytes of every value the load wrote
	loadOps   int
	loadDur   time.Duration
}

func engineOptions(path string, st atom.Strategy, poolPages int, sync bool) core.Options {
	return core.Options{Path: path, Strategy: st, PoolPages: poolPages,
		SyncOnCommit: sync, TimeIndex: true, ValueIndex: true}
}

// buildStore generates the seeded personnel history, loads it into a fresh
// file-backed database and closes it cleanly. Any error from Close (which
// checkpoints) fails the build: a store whose checkpoint failed must never
// be measured.
func buildStore(path string, spec storeSpec, seed int64) (*store, error) {
	for _, suffix := range []string{"", ".wal", ".arc", ".lock"} {
		if err := os.Remove(path + suffix); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	ops := workload.Personnel(workload.PersonnelParams{Depts: spec.depts, Emps: spec.emps,
		UpdatesPerEmp: raisesPerEmp, MovesPerEmp: movesPerEmp, TimeStep: timeStep, Seed: seed})
	db, err := core.Open(engineOptions(path, spec.strategy, fitsPool, false))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	if err := installSchema(db); err != nil {
		db.Close()
		return nil, err
	}
	t0 := time.Now()
	app := workload.NewEngineApplier(db, loadBatch)
	ids, err := workload.Apply(ops, app)
	if err == nil {
		err = app.Flush()
	}
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	loadDur := time.Since(t0)
	db.AdvanceClock(nowVT)
	pages := int(db.Stats().DevicePags)
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close %s after load: %w", path, err)
	}
	return &store{
		spec: spec, path: path,
		deptIDs: ids[:spec.depts], empIDs: ids[spec.depts:],
		oracle: newOracle(ops, spec.depts, spec.emps), pages: pages,
		userBytes: opsUserBytes(ops), loadOps: len(ops), loadDur: loadDur,
	}, nil
}

func installSchema(db *core.Engine) error {
	sch, err := workload.PersonnelSchema()
	if err != nil {
		return err
	}
	for _, name := range sch.AtomTypeNames() {
		at, _ := sch.AtomType(name)
		if err := db.DefineAtomType(*at); err != nil {
			return err
		}
	}
	for _, name := range sch.MoleculeTypeNames() {
		mt, _ := sch.MoleculeType(name)
		if err := db.DefineMoleculeType(*mt); err != nil {
			return err
		}
	}
	return nil
}

// userBytes is the encoded size of one user value, the denominator of
// stored_bytes_per_user_byte.
func userBytes(v value.V) int64 { return int64(len(value.AppendRecord(nil, v))) }

func opsUserBytes(ops []workload.Op) int64 {
	var n int64
	for _, op := range ops {
		switch op.Kind {
		case workload.OpInsert:
			for _, v := range op.Vals {
				n += userBytes(v)
			}
			n += int64(len(op.Refs)) * userBytes(value.Ref(1))
		case workload.OpUpdate:
			n += userBytes(op.Val)
		case workload.OpUpdateRef:
			n += userBytes(value.Ref(1))
		}
	}
	return n
}

// storedBytes sums the database, log and archive files.
func storedBytes(path string) (int64, error) {
	var n int64
	for _, suffix := range []string{"", ".wal", ".arc"} {
		fi, err := os.Stat(path + suffix)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// copyStore copies a cleanly closed store's files to a new path.
func copyStore(from, to string) error {
	for _, suffix := range []string{"", ".wal", ".arc"} {
		if err := copyFile(from+suffix, to+suffix); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// --- answer oracle -----------------------------------------------------------

// step is one piece of a step-wise constant history: val holds from `from`
// until the next step.
type step struct {
	from temporal.Instant
	val  int64
}

// oracle states what every employee's salary and department are at any
// valid time, built from the generated op list alone (never from the
// engine under test).
type oracle struct {
	names  []string
	salary [][]step
	dept   [][]step // val = department index
	depts  int
}

func newOracle(ops []workload.Op, depts, emps int) *oracle {
	o := &oracle{names: make([]string, emps), salary: make([][]step, emps),
		dept: make([][]step, emps), depts: depts}
	handle := 0
	for _, op := range ops {
		switch op.Kind {
		case workload.OpInsert:
			if e := handle - depts; e >= 0 {
				o.names[e] = op.Vals["name"].AsString()
				o.salary[e] = []step{{op.From, op.Vals["salary"].AsInt()}}
				o.dept[e] = []step{{op.From, int64(op.Refs["dept"])}}
			}
			handle++
		case workload.OpUpdate:
			e := op.Handle - depts
			o.salary[e] = append(o.salary[e], step{op.From, op.Val.AsInt()})
		case workload.OpUpdateRef:
			e := op.Handle - depts
			o.dept[e] = append(o.dept[e], step{op.From, int64(op.Target)})
		}
	}
	return o
}

func stepAt(steps []step, vt temporal.Instant) int64 {
	i := sort.Search(len(steps), func(i int) bool { return steps[i].from > vt })
	return steps[i-1].val
}

func (o *oracle) salaryAt(e int, vt temporal.Instant) int64 { return stepAt(o.salary[e], vt) }
func (o *oracle) deptAt(e int, vt temporal.Instant) int     { return int(stepAt(o.dept[e], vt)) }

// staffAt counts the employees of department d at vt.
func (o *oracle) staffAt(d int, vt temporal.Instant) int {
	n := 0
	for e := range o.dept {
		if o.deptAt(e, vt) == d {
			n++
		}
	}
	return n
}

// coalesce merges adjacent equal-valued steps, the canonical form in which
// a returned history is compared with the oracle's.
func coalesce(steps []step) []step {
	var out []step
	for _, s := range steps {
		if len(out) > 0 && out[len(out)-1].val == s.val {
			continue
		}
		out = append(out, s)
	}
	return out
}

func equalSteps(a, b []step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
