package fault

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/wal"
	"tcodm/internal/workload"
)

// Config sizes one torture run (one storage strategy).
type Config struct {
	// Strategy is the physical mapping under test.
	Strategy atom.Strategy
	// Seed drives the workload generator; the whole run is a deterministic
	// function of (Strategy, Seed, Cuts).
	Seed int64
	// Cuts is the number of power-cut points per fault variant, spread
	// evenly over the probe run's operation count (default 14).
	Cuts int
	// Dir is the scratch directory scenarios run in (required).
	Dir string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

const (
	// batchSize is operations per transaction of the workload family.
	batchSize = 5
	// poolPages sizes the buffer pool of every store the crash families
	// open; a pool this small forces mid-transaction evictions.
	poolPages = 16
)

// Result summarizes a torture run.
type Result struct {
	Scenarios  int      // scenarios executed (including the probe)
	Recovered  int      // crashes whose reopen recovered successfully
	Refused    int      // opens refused after a torn device-page write (allowed)
	Clean      int      // scenarios whose fault never fired
	ProbeOps   int      // I/O operations counted in the fault-free probe
	Violations []string // invariant violations, "<scenario>: <detail>"
	// Replay aggregates the WAL replay statistics across every recovered
	// scenario's first reopen (the recovery the crash forced).
	Replay ReplaySummary
}

// ReplaySummary totals WAL replay work over many recoveries.
type ReplaySummary struct {
	Records   int   // log records read
	Committed int   // records of committed transactions
	Replayed  int   // redo operations applied
	TornBytes int64 // torn log tail bytes truncated
}

func (s *ReplaySummary) add(rs wal.RecoveryStats) {
	s.Records += rs.Records
	s.Committed += rs.Committed
	s.Replayed += rs.Replayed
	s.TornBytes += rs.TornBytes
}

// Run executes the torture matrix for one strategy: a fault-free probe to
// count the workload's I/O operations, then every fault variant at every
// cut point, each in a fresh directory, each verified after reopening.
func Run(cfg Config) (*Result, error) { return runFamily(workloadFamily, cfg) }

// A family is one crash-recovery matrix. runFamily and runCrashScenario
// own every step its scenarios share; a family supplies only what differs:
// how a scenario's store is built and checked (start and the trial it
// returns), its variant table, and which file a chop damages.
type family struct {
	label  string // "" or "archive ": inserted before "probe" and "scenarios" in log lines
	prefix string // prefix of every scenario name but the probe's
	work   string // what the probe's trial.work counts, for its log line
	// variants run at every cut point, in order; the driver sets CutAtOp.
	variants             []variant
	syncErrAt, readErrAt []int
	// A chop variant appends chopLen bytes of chopFill to the file at the
	// store's path plus chopSuffix after the crash.
	chopSuffix string
	chopLen    int
	chopFill   byte
	// start prepares one scenario's store at path, fault-free.
	start func(cfg Config, path string) (trial, error)
}

// variant is one fault script run at every cut point.
type variant struct {
	name   string
	script Script
	chop   bool
}

// trial is one scenario's family-specific state and checks.
type trial interface {
	// fault runs the faulted phase on e, opened with injection, and reports
	// whether e is still open; once it has crashed e must not be touched.
	fault(e *core.Engine, inj *Injector, bad func(string, ...any)) bool
	// verify holds a recovered engine to the family's oracle.
	verify(e *core.Engine, bad func(string, ...any))
	// post proves the recovered store still provides service.
	post(e *core.Engine, bad func(string, ...any))
	// work counts what the faulted phase completed; a probe that did none
	// would make the matrix vacuous.
	work() int
}

// workloadFamily cuts the personnel workload itself: the store is built
// under injection, one batch per transaction, and checked against the
// facts of every acknowledged commit.
var workloadFamily = &family{
	work: "batches",
	variants: []variant{
		{name: "cut"},
		{name: "tear", script: Script{TearWrite: true, TearBytes: 512}},
		{name: "buf", script: Script{Buffered: true}},
		{name: "buftear", script: Script{Buffered: true, SyncApply: 2, TearWrite: true, TearBytes: 1000}},
		{name: "chop", chop: true},
	},
	syncErrAt: []int{1, 2, 5},
	readErrAt: []int{1, 5, 15},
	// A torn partial page, as a power cut during a file grow leaves it.
	chopLen:  517,
	chopFill: 0xA7,
	start: func(cfg Config, _ string) (trial, error) {
		return &workloadTrial{ops: workload.Personnel(workload.PersonnelParams{
			Depts: 3, Emps: 10, UpdatesPerEmp: 3, MovesPerEmp: 1,
			TimeStep: 10, Seed: cfg.Seed,
		}), ackedTypes: map[string]int{}}, nil
	},
}

// runFamily executes one family's matrix for one strategy: a fault-free
// probe to count the I/O operations and prove the harness sound, then
// every variant at every cut point plus the transient sync and read
// errors, all through Drive.
func runFamily(fam *family, cfg Config) (*Result, error) {
	if cfg.Cuts <= 0 {
		cfg.Cuts = 14
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fault: Config.Dir is required")
	}
	logf := func(string, ...any) {}
	if cfg.Logf != nil {
		logf = func(format string, args ...any) {
			cfg.Logf("[%s] "+format, append([]any{cfg.Strategy}, args...)...)
		}
	}
	res := &Result{}
	tally := func(scs []Scenario) {
		for i, out := range Drive(scs, 0, logf) {
			res.Scenarios++
			switch out.Verdict {
			case outcomeRecovered:
				res.Recovered++
			case outcomeRefused:
				res.Refused++
			case outcomeClean:
				res.Clean++
			}
			for _, v := range out.Violations {
				res.Violations = append(res.Violations, scs[i].Name+": "+v)
			}
		}
	}

	var probe crashRun
	tally([]Scenario{{Name: "probe", Run: func() Outcome {
		probe = runCrashScenario(fam, cfg, "probe", Script{}, false)
		return probe.Outcome
	}}})
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("fault: %sprobe violated invariants: %s", fam.label, res.Violations[0])
	}
	res.ProbeOps = probe.ops
	if probe.work == 0 {
		return res, fmt.Errorf("fault: %sprobe did no %s; the matrix would be vacuous", fam.label, fam.work)
	}
	if res.ProbeOps < cfg.Cuts {
		return res, fmt.Errorf("fault: %sprobe counted only %d ops for %d cut points", fam.label, res.ProbeOps, cfg.Cuts)
	}
	logf("%sprobe: %d ops, %d %s", fam.label, res.ProbeOps, probe.work, fam.work)

	var scs []Scenario
	add := func(name string, script Script, chop bool) {
		scs = append(scs, Scenario{Name: name, Run: func() Outcome {
			r := runCrashScenario(fam, cfg, name, script, chop)
			res.Replay.add(r.recovery)
			return r.Outcome
		}})
	}
	for k := 0; k < cfg.Cuts; k++ {
		cut := 1 + k*(res.ProbeOps-1)/max(1, cfg.Cuts-1)
		for _, v := range fam.variants {
			script := v.script
			script.CutAtOp = cut
			add(fmt.Sprintf("%s%s@%d", fam.prefix, v.name, cut), script, v.chop)
		}
	}
	for _, s := range fam.syncErrAt {
		add(fmt.Sprintf("%ssyncerr@%d", fam.prefix, s), Script{SyncErrAt: s}, false)
	}
	for _, r := range fam.readErrAt {
		add(fmt.Sprintf("%sreaderr@%d", fam.prefix, r), Script{ReadErrAt: r}, false)
	}
	tally(scs)
	logf("%d %sscenarios: %d recovered, %d refused, %d clean, %d violations",
		res.Scenarios, fam.label, res.Recovered, res.Refused, res.Clean, len(res.Violations))
	return res, nil
}

const (
	outcomeClean     = "clean"
	outcomeRecovered = "recovered"
	outcomeRefused   = "refused"
)

// crashRun is one crash scenario's outcome plus what the driver aggregates.
type crashRun struct {
	Outcome
	ops  int // I/O operations the injector counted
	work int // the trial's work count
	// recovery holds the first reopen's WAL replay statistics (zero when
	// the open was refused).
	recovery wal.RecoveryStats
}

// runCrashScenario builds the family's store, runs its faulted phase with
// the script injected, crashes when the fault fires, optionally chops the
// family's file, reopens without injection twice — verifying each time —
// and proves the store still serves, checkpoints and passes a checksum
// sweep. It never returns an error: everything unexpected becomes a
// violation.
func runCrashScenario(fam *family, cfg Config, name string, script Script, chop bool) (run crashRun) {
	bad := run.Bad
	dir := filepath.Join(cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		bad("mkdir: %v", err)
		return run
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "db.tdb")
	t, err := fam.start(cfg, path)
	if err != nil {
		bad("building the store: %v", err)
		return run
	}

	inj := NewInjector(script)
	crashed := true
	e, err := core.Open(injectedOptions(path, cfg.Strategy, poolPages, inj))
	if err != nil {
		if !inj.Cut() && !inj.transient() {
			bad("open failed without a fault firing: %v", err)
		}
	} else if t.fault(e, inj, bad) {
		crashed = false
		if err := e.Close(); err != nil {
			crashed = true
			_ = e.Crash()
		}
	}
	report := inj.Report()
	run.ops, run.work = report.Ops, t.work()
	if chop && crashed {
		chopTail(path+fam.chopSuffix, fam.chopLen, fam.chopFill)
	}

	// Reopen on the real files — the injector is out of the picture, exactly
	// as after a machine reboot.
	e2, err := core.Open(core.Options{Path: path, PoolPages: poolPages})
	if err != nil {
		// A torn device-page write may have destroyed the meta page or a
		// checkpointed page the log no longer covers; refusing to open is
		// then the correct, detected outcome. Anything else is a violation.
		if report.TornPage >= 0 {
			run.Verdict = outcomeRefused
			return run
		}
		bad("reopen failed: %v", err)
		return run
	}
	run.recovery = e2.RecoveryStats()
	t.verify(e2, bad)

	// Second recovery must be idempotent: crash the recovered engine before
	// it checkpoints and recover again off the identical on-disk state.
	_ = e2.Crash()
	e3, err := core.Open(core.Options{Path: path, PoolPages: poolPages})
	if err != nil {
		bad("second recovery failed: %v", err)
		return run
	}
	t.verify(e3, bad)

	// The database must still provide service, checkpoint, and close cleanly.
	t.post(e3, bad)
	if err := e3.Checkpoint(); err != nil {
		bad("post-recovery checkpoint: %v", err)
	}
	if err := e3.Close(); err != nil {
		bad("post-recovery close: %v", err)
	}
	sweepChecksums(path, bad)

	run.Verdict = outcomeClean
	if crashed {
		run.Verdict = outcomeRecovered
	}
	return run
}

// transient reports whether a scripted transient sync or read error has
// fired.
func (in *Injector) transient() bool {
	r := in.Report()
	return r.SyncErrs > 0 || r.ReadErrs > 0
}

// injectedOptions wires the fault device and log wrappers into the engine's
// open seams, sharing one injector so the op counter spans both files.
func injectedOptions(path string, strategy atom.Strategy, poolPages int, inj *Injector) core.Options {
	return core.Options{
		Path:         path,
		Strategy:     strategy,
		SyncOnCommit: true,
		PoolPages:    poolPages,
		OpenDevice: func(p string) (storage.Device, error) {
			fd, err := storage.OpenFileDevice(p)
			if err != nil {
				return nil, err
			}
			return NewDevice(inj, fd), nil
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
			return wal.OpenFile(NewLogFile(inj, f), info.Size(), opts), nil
		},
		OpenArchive: func(p string) (*storage.Archive, error) {
			f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return nil, err
			}
			info, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, err
			}
			// The archive file has the WAL file's exact contract, so the log
			// wrapper (staged writes, land at Sync, cut loses the rest) models
			// it too — and the shared injector keeps one op counter across all
			// three files.
			a, err := storage.OpenArchiveFile(NewLogFile(inj, f), info.Size())
			if err != nil {
				f.Close()
				return nil, err
			}
			return a, nil
		},
	}
}

// installSchema defines the personnel schema, one DDL transaction per type.
func installSchema(e *core.Engine) error {
	sch, err := workload.PersonnelSchema()
	if err != nil {
		return err
	}
	return workload.Install(e, sch)
}

// fact is one acknowledged (committed) attribute assignment: after recovery,
// StateAt(id(handle), from, atom.Now) must show the latest acked fact for
// (handle, attr) whose valid-from does not exceed from.
type fact struct {
	handle int
	attr   string
	val    value.V
	from   temporal.Instant
}

// workloadTrial is one workload-family scenario: the ops to apply and the
// oracle of what the acknowledged commits made durable.
type workloadTrial struct {
	ops        []workload.Op
	ids        []value.ID
	acked      []fact
	ackedTypes map[string]int // type -> committed inserts
	schemaOK   bool
	batches    int // batches acknowledged
}

func (w *workloadTrial) work() int { return w.batches }

// fault installs the schema and runs the ops in batches of batchSize, one
// transaction each, recording the facts of every acknowledged commit. A
// batch that fails for a transient reason (no power cut) is retried once —
// its effects were rolled back, so the replay is exact. A failed log sync
// is not transient: the log fails stop, so the store is crashed and
// recovered instead.
func (w *workloadTrial) fault(e *core.Engine, inj *Injector, bad func(string, ...any)) bool {
	if err := installSchema(e); err != nil {
		_ = e.Crash()
		if !inj.Cut() && !inj.transient() {
			bad("schema definition failed without a fault: %v", err)
		}
		return false
	}
	w.schemaOK = true
	inserts := 0
	for start := 0; start < len(w.ops); start += batchSize {
		batch := w.ops[start:min(start+batchSize, len(w.ops))]
		mark := len(w.ids)
		if err := applyBatch(e, batch, &w.ids); err != nil {
			w.ids = w.ids[:mark]
			if inj.Cut() || errors.Is(err, wal.ErrLogFailed) {
				_ = e.Crash()
				return false
			}
			// Transient fault: the transaction rolled back; retry it.
			if err := applyBatch(e, batch, &w.ids); err != nil {
				w.ids = w.ids[:mark]
				if !inj.Cut() {
					bad("batch %d failed twice without a power cut: %v", start/batchSize, err)
				}
				_ = e.Crash()
				return false
			}
		}
		w.batches++
		// Acked: record the batch's facts against the now-known ids.
		for _, op := range batch {
			switch op.Kind {
			case workload.OpInsert:
				h := inserts
				inserts++
				w.ackedTypes[op.Type]++
				for attr, v := range op.Vals {
					w.acked = append(w.acked, fact{handle: h, attr: attr, val: v, from: op.From})
				}
				for attr, th := range op.Refs {
					w.acked = append(w.acked, fact{handle: h, attr: attr, val: value.Ref(w.ids[th]), from: op.From})
				}
			case workload.OpUpdate:
				w.acked = append(w.acked, fact{handle: op.Handle, attr: op.Attr, val: op.Val, from: op.From})
			case workload.OpUpdateRef:
				w.acked = append(w.acked, fact{handle: op.Handle, attr: op.Attr, val: value.Ref(w.ids[op.Target]), from: op.From})
			}
		}
	}
	return true
}

// applyBatch applies one batch inside one transaction. On any error the
// transaction is aborted and the error returned; ids may have grown and
// must be truncated by the caller.
func applyBatch(e *core.Engine, batch []workload.Op, ids *[]value.ID) error {
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	for _, op := range batch {
		var err error
		switch op.Kind {
		case workload.OpInsert:
			vals := map[string]value.V{}
			for k, v := range op.Vals {
				vals[k] = v
			}
			for attr, h := range op.Refs {
				vals[attr] = value.Ref((*ids)[h])
			}
			var id value.ID
			id, err = tx.Insert(op.Type, vals, op.From)
			if err == nil {
				*ids = append(*ids, id)
			}
		case workload.OpUpdate:
			err = tx.Set((*ids)[op.Handle], op.Attr, op.Val, op.From)
		case workload.OpUpdateRef:
			err = tx.Set((*ids)[op.Handle], op.Attr, value.Ref((*ids)[op.Target]), op.From)
		case workload.OpAddRef:
			err = tx.AddRef((*ids)[op.Handle], op.Attr, (*ids)[op.Target], temporal.Open(op.From))
		case workload.OpRemoveRef:
			err = tx.RemoveRef((*ids)[op.Handle], op.Attr, (*ids)[op.Target], temporal.Open(op.From))
		case workload.OpDelete:
			err = tx.Delete((*ids)[op.Handle], op.From)
		}
		if err != nil {
			_ = tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// verify checks every invariant the recovered database must uphold:
// committed facts visible with the right time-sliced values, no effects of
// unacknowledged transactions (exact per-type atom counts), and a working
// query path.
func (w *workloadTrial) verify(e *core.Engine, bad func(string, ...any)) {
	for typ, n := range w.ackedTypes {
		got, err := e.IDs(typ)
		if err != nil {
			bad("IDs(%s): %v", typ, err)
			continue
		}
		if len(got) != n {
			bad("type %s has %d atoms, want %d (lost commit or leaked uncommitted insert)", typ, len(got), n)
		}
	}
	for fi, f := range w.acked {
		want := f.val
		for _, g := range w.acked[fi+1:] {
			if g.handle == f.handle && g.attr == f.attr && g.from <= f.from {
				want = g.val
			}
		}
		st, err := e.StateAt(w.ids[f.handle], f.from, atom.Now)
		if err != nil {
			bad("StateAt(handle %d, vt %d): %v", f.handle, f.from, err)
			continue
		}
		if got := st.Vals[f.attr]; !got.Equal(want) {
			bad("handle %d attr %s at vt %d = %v, want %v", f.handle, f.attr, f.from, got, want)
		}
	}
	if w.schemaOK {
		if _, err := e.Query("SELECT (Emp.name, Emp.salary) FROM Emp"); err != nil {
			bad("query after recovery: %v", err)
		}
	}
}

// post proves the recovered database still accepts commits.
func (w *workloadTrial) post(e *core.Engine, bad func(string, ...any)) {
	if !w.schemaOK {
		return
	}
	if err := postRecoveryWrite(e); err != nil {
		bad("post-recovery write: %v", err)
	}
}

// postRecoveryWrite proves the recovered database still accepts commits.
func postRecoveryWrite(e *core.Engine) error {
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	id, err := tx.Insert("Emp", map[string]value.V{
		"name": value.String_("post-recovery"), "salary": value.Int(1),
	}, 0)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	st, err := e.StateAt(id, 0, atom.Now)
	if err != nil {
		return err
	}
	if got := st.Vals["name"]; !got.Equal(value.String_("post-recovery")) {
		return fmt.Errorf("post-recovery insert read back %v", got)
	}
	return nil
}

// chopTail appends n bytes of fill to the file at path, as a power cut
// while the file grows leaves it. A missing or empty file is left alone:
// chopping it would model a torn write of the very first page or header,
// which the device layer (correctly) refuses as not-a-database.
func chopTail(path string, n int, fill byte) {
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		return
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	_, _ = f.Write(bytes.Repeat([]byte{fill}, n))
	_ = f.Close()
}

// sweepChecksums re-reads the closed database file raw and verifies every
// page checksum: recovery plus checkpoint must leave no torn page behind.
func sweepChecksums(path string, bad func(string, ...any)) {
	data, err := os.ReadFile(path)
	if err != nil {
		bad("reading database for checksum sweep: %v", err)
		return
	}
	if len(data)%storage.PageSize != 0 {
		bad("database file is %d bytes, not page-aligned after close", len(data))
		return
	}
	for id := 0; id*storage.PageSize < len(data); id++ {
		page := data[id*storage.PageSize : (id+1)*storage.PageSize]
		if err := storage.VerifyPageChecksum(storage.PageID(id), page); err != nil {
			bad("checksum sweep: %v", err)
		}
	}
}
