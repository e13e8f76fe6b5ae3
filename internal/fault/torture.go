package fault

import (
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
	// function of (Strategy, Seed, Cuts, BatchSize, PoolPages).
	Seed int64
	// BatchSize is operations per transaction (default 5).
	BatchSize int
	// PoolPages sizes the buffer pool; small pools force mid-transaction
	// evictions (default 16).
	PoolPages int
	// Cuts is the number of power-cut points per fault variant, spread
	// evenly over the probe run's operation count (default 14).
	Cuts int
	// Dir is the scratch directory scenarios run in (required).
	Dir string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

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

// fact is one acknowledged (committed) attribute assignment: after recovery,
// StateAt(id(handle), from, atom.Now) must show the latest acked fact for
// (handle, attr) whose valid-from does not exceed from.
type fact struct {
	handle int
	attr   string
	val    value.V
	from   temporal.Instant
}

// scenario is one scripted failure.
type scenario struct {
	name   string
	script Script
	// chop appends a torn partial page to the database file after the
	// crash, modelling a power cut mid file-grow beneath the page layer.
	chop bool
}

// Run executes the torture matrix for one strategy: a fault-free probe to
// count the workload's I/O operations, then every fault variant at every
// cut point, each in a fresh directory, each verified after reopening.
func Run(cfg Config) (*Result, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 5
	}
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 16
	}
	if cfg.Cuts <= 0 {
		cfg.Cuts = 14
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fault: Config.Dir is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ops := workload.Personnel(workload.PersonnelParams{
		Depts: 3, Emps: 10, UpdatesPerEmp: 3, MovesPerEmp: 1,
		TimeStep: 10, Seed: cfg.Seed,
	})
	res := &Result{}

	// Probe: the same workload with a script that injects nothing, to learn
	// the total operation count and to prove the harness itself is sound.
	probe := runScenario(cfg, ops, scenario{name: "probe"})
	res.Scenarios++
	res.Clean++
	res.ProbeOps = probe.report.Ops
	res.Violations = append(res.Violations, probe.violations...)
	if len(probe.violations) > 0 {
		return res, fmt.Errorf("fault: probe run violated invariants: %s", probe.violations[0])
	}
	if res.ProbeOps < cfg.Cuts {
		return res, fmt.Errorf("fault: probe counted only %d ops for %d cut points", res.ProbeOps, cfg.Cuts)
	}
	logf("[%s] probe: %d ops, %d batches", cfg.Strategy, res.ProbeOps, (len(ops)+cfg.BatchSize-1)/cfg.BatchSize)

	var scenarios []scenario
	for k := 0; k < cfg.Cuts; k++ {
		cut := 1 + k*(res.ProbeOps-1)/max(1, cfg.Cuts-1)
		scenarios = append(scenarios,
			scenario{name: fmt.Sprintf("cut@%d", cut), script: Script{CutAtOp: cut}},
			scenario{name: fmt.Sprintf("tear@%d", cut), script: Script{CutAtOp: cut, TearWrite: true, TearBytes: 512}},
			scenario{name: fmt.Sprintf("buf@%d", cut), script: Script{CutAtOp: cut, Buffered: true}},
			scenario{name: fmt.Sprintf("buftear@%d", cut), script: Script{CutAtOp: cut, Buffered: true, SyncApply: 2, TearWrite: true, TearBytes: 1000}},
			scenario{name: fmt.Sprintf("chop@%d", cut), script: Script{CutAtOp: cut}, chop: true},
		)
	}
	for _, s := range []int{1, 2, 5} {
		scenarios = append(scenarios, scenario{name: fmt.Sprintf("syncerr@%d", s), script: Script{SyncErrAt: s}})
	}
	for _, r := range []int{1, 5, 15} {
		scenarios = append(scenarios, scenario{name: fmt.Sprintf("readerr@%d", r), script: Script{ReadErrAt: r}})
	}

	for _, sc := range scenarios {
		out := runScenario(cfg, ops, sc)
		res.Scenarios++
		switch out.outcome {
		case outcomeRecovered:
			res.Recovered++
		case outcomeRefused:
			res.Refused++
		case outcomeClean:
			res.Clean++
		}
		res.Replay.add(out.recovery)
		if out.outcome == outcomeRecovered {
			logf("[%s] %s: %s (replayed %d/%d records, %d committed, %d torn bytes)",
				cfg.Strategy, sc.name, out.outcome,
				out.recovery.Replayed, out.recovery.Records, out.recovery.Committed, out.recovery.TornBytes)
		} else {
			logf("[%s] %s: %s", cfg.Strategy, sc.name, out.outcome)
		}
		res.Violations = append(res.Violations, out.violations...)
		if len(out.violations) > 0 {
			logf("[%s] %s: %d violation(s): %s", cfg.Strategy, sc.name, len(out.violations), out.violations[0])
		}
	}
	logf("[%s] %d scenarios: %d recovered, %d refused, %d clean, %d violations",
		cfg.Strategy, res.Scenarios, res.Recovered, res.Refused, res.Clean, len(res.Violations))
	return res, nil
}

const (
	outcomeClean     = "clean"
	outcomeRecovered = "recovered"
	outcomeRefused   = "refused"
)

type scenarioResult struct {
	outcome    string
	violations []string
	report     Report
	// recovery holds the first reopen's WAL replay statistics (zero when
	// the scenario never crashed or the open was refused).
	recovery wal.RecoveryStats
	// archived counts versions the scenario's tiering run migrated before
	// any fault fired (archive scenarios only; the probe uses it to prove
	// the matrix is not vacuous).
	archived int
}

// runScenario drives the workload against a fresh database with the
// scenario's script injected, crashes when the fault fires, reopens without
// injection, and verifies every invariant. It never returns an error:
// everything unexpected becomes a violation.
func runScenario(cfg Config, ops []workload.Op, sc scenario) (out scenarioResult) {
	dir := filepath.Join(cfg.Dir, sc.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		out.violations = append(out.violations, fmt.Sprintf("%s: mkdir: %v", sc.name, err))
		return out
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "db.tdb")
	inj := NewInjector(sc.script)
	bad := func(format string, args ...any) {
		out.violations = append(out.violations, sc.name+": "+fmt.Sprintf(format, args...))
	}

	var (
		ids        []value.ID
		acked      []fact
		ackedTypes = map[string]int{} // type -> committed inserts
		schemaOK   bool
		crashed    bool
	)
	transient := func() bool {
		r := inj.Report()
		return r.SyncErrs > 0 || r.ReadErrs > 0
	}
	e, err := core.Open(injectedOptions(path, cfg, inj))
	if err != nil {
		crashed = true
		if !inj.Cut() && !transient() {
			bad("initial open failed without a fault firing: %v", err)
		}
	} else {
		if err := installSchema(e); err != nil {
			crashed = true
			_ = e.Crash()
			if !inj.Cut() && !transient() {
				bad("schema definition failed without a fault: %v", err)
			}
		} else {
			schemaOK = true
			crashed = !applyWorkload(e, ops, cfg.BatchSize, inj, &ids, &acked, ackedTypes, bad)
			if !crashed {
				if err := e.Close(); err != nil {
					crashed = true
					_ = e.Crash()
				}
			}
		}
	}
	out.report = inj.Report()

	if sc.chop && crashed {
		chopTail(path)
	}

	// Reopen on the real files — the injector is out of the picture, exactly
	// as after a machine reboot.
	e2, err := core.Open(core.Options{Path: path, PoolPages: cfg.PoolPages})
	if err != nil {
		// A torn device-page write may have destroyed the meta page or a
		// checkpointed page the log no longer covers; refusing to open is
		// then the correct, detected outcome. Anything else is a violation.
		if out.report.TornPage >= 0 {
			out.outcome = outcomeRefused
			return out
		}
		bad("reopen failed: %v", err)
		return out
	}
	out.recovery = e2.RecoveryStats()
	verify(e2, ids, acked, ackedTypes, schemaOK, bad)

	// Second recovery must be idempotent: crash the recovered engine before
	// it checkpoints and recover again off the identical on-disk state.
	_ = e2.Crash()
	e3, err := core.Open(core.Options{Path: path, PoolPages: cfg.PoolPages})
	if err != nil {
		bad("second recovery failed: %v", err)
		return out
	}
	verify(e3, ids, acked, ackedTypes, schemaOK, bad)

	// The database must still provide service: accept a write, checkpoint,
	// and close cleanly.
	if schemaOK {
		if err := postRecoveryWrite(e3); err != nil {
			bad("post-recovery write: %v", err)
		}
	}
	if err := e3.Checkpoint(); err != nil {
		bad("post-recovery checkpoint: %v", err)
	}
	if err := e3.Close(); err != nil {
		bad("post-recovery close: %v", err)
	}
	sweepChecksums(path, bad)

	if crashed {
		out.outcome = outcomeRecovered
	} else {
		out.outcome = outcomeClean
	}
	return out
}

// injectedOptions wires the fault device and log wrappers into the engine's
// open seams, sharing one injector so the op counter spans both files.
func injectedOptions(path string, cfg Config, inj *Injector) core.Options {
	return core.Options{
		Path:         path,
		Strategy:     cfg.Strategy,
		SyncOnCommit: true,
		PoolPages:    cfg.PoolPages,
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

// applyWorkload runs ops in batches of batchSize, one transaction each,
// recording the facts of every acknowledged commit. A batch that fails for
// a transient reason (no power cut) is retried once — its effects were
// rolled back, so the replay is exact. Returns false once the database has
// crashed (the caller must not touch e afterwards).
func applyWorkload(e *core.Engine, ops []workload.Op, batchSize int, inj *Injector,
	ids *[]value.ID, acked *[]fact, ackedTypes map[string]int, bad func(string, ...any)) bool {
	inserts := 0
	for start := 0; start < len(ops); start += batchSize {
		end := start + batchSize
		if end > len(ops) {
			end = len(ops)
		}
		batch := ops[start:end]
		mark := len(*ids)
		if err := applyBatch(e, batch, ids); err != nil {
			*ids = (*ids)[:mark]
			if inj.Cut() {
				_ = e.Crash()
				return false
			}
			// Transient fault: the transaction rolled back; retry it.
			if err := applyBatch(e, batch, ids); err != nil {
				*ids = (*ids)[:mark]
				if !inj.Cut() {
					bad("batch %d failed twice without a power cut: %v", start/batchSize, err)
				}
				_ = e.Crash()
				return false
			}
		}
		// Acked: record the batch's facts against the now-known ids.
		for _, op := range batch {
			switch op.Kind {
			case workload.OpInsert:
				h := inserts
				inserts++
				ackedTypes[op.Type]++
				for attr, v := range op.Vals {
					*acked = append(*acked, fact{handle: h, attr: attr, val: v, from: op.From})
				}
				for attr, th := range op.Refs {
					*acked = append(*acked, fact{handle: h, attr: attr, val: value.Ref((*ids)[th]), from: op.From})
				}
			case workload.OpUpdate:
				*acked = append(*acked, fact{handle: op.Handle, attr: op.Attr, val: op.Val, from: op.From})
			case workload.OpUpdateRef:
				*acked = append(*acked, fact{handle: op.Handle, attr: op.Attr, val: value.Ref((*ids)[op.Target]), from: op.From})
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
func verify(e *core.Engine, ids []value.ID, acked []fact, ackedTypes map[string]int,
	schemaOK bool, bad func(string, ...any)) {
	for typ, n := range ackedTypes {
		got, err := e.IDs(typ)
		if err != nil {
			bad("IDs(%s): %v", typ, err)
			continue
		}
		if len(got) != n {
			bad("type %s has %d atoms, want %d (lost commit or leaked uncommitted insert)", typ, len(got), n)
		}
	}
	for fi, f := range acked {
		want := f.val
		for _, g := range acked[fi+1:] {
			if g.handle == f.handle && g.attr == f.attr && g.from <= f.from {
				want = g.val
			}
		}
		st, err := e.StateAt(ids[f.handle], f.from, atom.Now)
		if err != nil {
			bad("StateAt(handle %d, vt %d): %v", f.handle, f.from, err)
			continue
		}
		if got := st.Vals[f.attr]; !got.Equal(want) {
			bad("handle %d attr %s at vt %d = %v, want %v", f.handle, f.attr, f.from, got, want)
		}
	}
	if schemaOK {
		if _, err := e.Query("SELECT (Emp.name, Emp.salary) FROM Emp"); err != nil {
			bad("query after recovery: %v", err)
		}
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

// chopTail appends a torn partial page to the database file, as a power cut
// during a file grow would leave it. A file without a single complete page
// is left alone: chopping it would model a torn write of the very first
// page, which the device layer (correctly) refuses as not-a-database.
func chopTail(path string) {
	if info, err := os.Stat(path); err != nil || info.Size() < storage.PageSize {
		return
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return // no database file materialized before the crash
	}
	garbage := make([]byte, 517)
	for i := range garbage {
		garbage[i] = 0xA7
	}
	_, _ = f.Write(garbage)
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

