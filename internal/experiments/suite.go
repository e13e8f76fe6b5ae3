package experiments

import (
	"fmt"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/baseline"
	"tcodm/internal/core"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// Scale globally sizes the suite (1 = quick, 2+ = larger sweeps).
type Scale int

// Config is what a run of the suite fixes for every experiment.
type Config struct {
	Scale Scale
	Dir   string // scratch directory of the file-backed experiments
	Cores []int  // worker counts R-T9 sweeps
}

// Experiment is one registered table or figure.
type Experiment struct {
	ID      string
	MinRows int // rows the table has at least, at any scale
	Run     func(Config) (*Table, error)
}

// Suite is every experiment, in the order tcobench prints them. It is the
// only list: tcobench and TestSuiteRuns both range over it.
var Suite = []Experiment{
	{"R-T1", 5, func(c Config) (*Table, error) { return RT1StorageCost(c.Scale) }},
	{"R-F1", 4, func(c Config) (*Table, error) { return RF1CurrentQuery(c.Scale) }},
	{"R-F2", 5, func(c Config) (*Table, error) { return RF2TimeSlice(c.Scale) }},
	{"R-F3", 4, func(c Config) (*Table, error) { return RF3UpdateCost(c.Scale) }},
	{"R-T2", 6, func(c Config) (*Table, error) { return RT2Molecule(c.Scale) }},
	{"R-F4", 4, func(c Config) (*Table, error) { return RF4WhenSelection(c.Scale) }},
	{"R-F5", 3, func(c Config) (*Table, error) { return RF5HistoryQuery(c.Scale) }},
	{"R-F6", 4, func(c Config) (*Table, error) { return RF6BufferPool(c.Scale, c.Dir) }},
	{"R-A1", 4, func(c Config) (*Table, error) { return RA1SegmentCap(c.Scale) }},
	{"R-F8", 4, func(c Config) (*Table, error) { return RF8ValueIndex(c.Scale) }},
	{"R-A2", 3, func(c Config) (*Table, error) { return RA2Vacuum(c.Scale) }},
	{"R-T9", 1, func(c Config) (*Table, error) { return RT9ParallelScan(c.Scale, c.Cores) }},
	{"R-T10", 3, func(c Config) (*Table, error) { return RT10ReadReplicas(c.Scale, c.Dir) }},
	{"R-T11", 3, func(c Config) (*Table, error) { return RT11Tiering(c.Scale, c.Dir) }},
}

// RT1StorageCost measures storage consumption by strategy as update volume
// grows, against the snapshot-copy baseline.
func RT1StorageCost(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "R-T1",
		Title: "Storage consumption by strategy vs. update volume",
		Claim: "attribute versioning (embedded ≈ separated) < tuple-versioning ≪ snapshot-copy; gaps widen with update volume",
		Columns: []string{"updates/emp", "embedded MiB", "separated MiB", "tuple MiB", "snapshot-copy MiB",
			"tuple/separated", "copy/separated"},
	}
	emps := 200 * int(scale)
	for _, u := range []int{0, 2, 4, 8, 16} {
		// A quarter of the employees change per round: realistic sparse
		// updates that expose the per-epoch cost of whole-database copies.
		p := workload.PersonnelParams{Depts: 8, Emps: emps, UpdatesPerEmp: u, MovesPerEmp: 0,
			UpdateFraction: 0.25, TimeStep: 10, Seed: 42}
		sizes := map[atom.Strategy]int64{}
		for _, s := range Strategies {
			db, _, err := BuildPersonnelDB(s, p, false)
			if err != nil {
				return nil, err
			}
			if err := db.Checkpoint(); err != nil {
				db.Close()
				return nil, err
			}
			sizes[s] = int64(db.Stats().DevicePags) * 8192
			db.Close()
		}
		// Snapshot-copy baseline.
		sch, err := workload.PersonnelSchema()
		if err != nil {
			return nil, err
		}
		ar, err := baseline.NewArchive(sch, 1024)
		if err != nil {
			return nil, err
		}
		if _, err := workload.Apply(workload.Personnel(p), &workload.ArchiveApplier{Archive: ar}); err != nil {
			return nil, err
		}
		copyBytes, err := ar.DeviceBytes()
		if err != nil {
			return nil, err
		}
		sep := sizes[atom.StrategySeparated]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(u),
			mib(sizes[atom.StrategyEmbedded]),
			mib(sep),
			mib(sizes[atom.StrategyTuple]),
			mib(copyBytes),
			ratio(sizes[atom.StrategyTuple], sep),
			ratio(copyBytes, sep),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("personnel workload, %d employees, 8 departments", emps))
	return t, nil
}

func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// RF1CurrentQuery measures current-state scan latency as history length
// grows.
func RF1CurrentQuery(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "R-F1",
		Title:   "Current-state (NOW) scan latency vs. history length",
		Claim:   "separated stays flat as histories grow; embedded and tuple-versioning degrade",
		Columns: []string{"updates/emp", "embedded", "separated", "tuple", "embedded/separated", "tuple/separated"},
	}
	emps := 100 * int(scale)
	for _, u := range []int{0, 4, 16, 64} {
		p := workload.PersonnelParams{Depts: 4, Emps: emps, UpdatesPerEmp: u, MovesPerEmp: 0, TimeStep: 10, Seed: 42}
		times := map[atom.Strategy]time.Duration{}
		nowVT := temporal.Instant(int64(u+2) * 10)
		for _, s := range Strategies {
			db, empIDs, err := BuildPersonnelDB(s, p, false)
			if err != nil {
				return nil, err
			}
			d := measure(40*time.Millisecond, func() {
				if _, err := scanCurrentSalaries(db, empIDs, nowVT, atom.Now); err != nil {
					panic(err)
				}
			})
			times[s] = d
			db.Close()
		}
		sep := times[atom.StrategySeparated]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(u),
			dur(times[atom.StrategyEmbedded]),
			dur(times[atom.StrategySeparated]),
			dur(times[atom.StrategyTuple]),
			ratioDur(times[atom.StrategyEmbedded], sep),
			ratioDur(times[atom.StrategyTuple], sep),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("scan of all %d employees' current salary per iteration", emps))
	return t, nil
}

func ratioDur(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// RF2TimeSlice measures time-slice latency by slice age.
func RF2TimeSlice(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "R-F2",
		Title:   "Time-slice scan latency vs. age of the slice point",
		Claim:   "tuple-versioning degrades with age (chain walk); embedded is age-insensitive; separated pays history cost only for past slices",
		Columns: []string{"slice age", "embedded", "separated", "tuple"},
	}
	emps := 100 * int(scale)
	const updates = 32
	p := workload.PersonnelParams{Depts: 4, Emps: emps, UpdatesPerEmp: updates, MovesPerEmp: 0, TimeStep: 10, Seed: 42}
	horizon := int64(updates+1) * 10
	dbs := map[atom.Strategy]*core.Engine{}
	empIDs := map[atom.Strategy][]value.ID{}
	for _, s := range Strategies {
		db, ids, err := BuildPersonnelDB(s, p, false)
		if err != nil {
			return nil, err
		}
		defer db.Close()
		dbs[s] = db
		empIDs[s] = ids
	}
	for _, frac := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		vt := temporal.Instant(horizon - int64(frac*float64(horizon)))
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for _, s := range Strategies {
			db, ids := dbs[s], empIDs[s]
			d := measure(40*time.Millisecond, func() {
				if _, err := scanCurrentSalaries(db, ids, vt, atom.Now); err != nil {
					panic(err)
				}
			})
			row = append(row, dur(d))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d employees, %d updates each; 0%% = newest instant, 100%% = creation time", emps, updates))
	return t, nil
}

// RF3UpdateCost measures the marginal update cost as history grows.
func RF3UpdateCost(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "R-F3",
		Title:   "Update cost vs. existing history length",
		Claim:   "embedded update cost grows with history (record rewrite); separated and tuple stay flat",
		Columns: []string{"history length", "embedded", "separated", "tuple"},
	}
	for _, h := range []int{1, 8, 32, 128} {
		row := []string{fmt.Sprint(h)}
		for _, s := range Strategies {
			db, err := core.Open(core.Options{Strategy: s, PoolPages: 2048})
			if err != nil {
				return nil, err
			}
			if err := installSchema(db, workload.PersonnelSchema); err != nil {
				db.Close()
				return nil, err
			}
			tx, _ := db.Begin()
			id, err := tx.Insert("Emp", map[string]value.V{
				"name": value.String_("u"), "salary": value.Int(0),
			}, 0)
			if err != nil {
				db.Close()
				return nil, err
			}
			for i := 1; i <= h; i++ {
				if err := tx.Set(id, "salary", value.Int(int64(i)), temporal.Instant(i)); err != nil {
					db.Close()
					return nil, err
				}
			}
			if err := tx.Commit(); err != nil {
				db.Close()
				return nil, err
			}
			next := h + 1
			d := measure(25*time.Millisecond, func() {
				tx, err := db.Begin()
				if err != nil {
					panic(err)
				}
				if err := tx.Set(id, "salary", value.Int(int64(next)), temporal.Instant(next)); err != nil {
					panic(err)
				}
				if err := tx.Commit(); err != nil {
					panic(err)
				}
				next++
			})
			row = append(row, dur(d))
			db.Close()
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "one transaction per update (in-memory database, no log)")
	_ = scale
	return t, nil
}

// RT2Molecule compares temporal molecule materialization against the
// non-temporal baseline across molecule sizes.
func RT2Molecule(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "R-T2",
		Title:   "Molecule materialization: temporal as-of vs. non-temporal baseline",
		Claim:   "temporal materialization costs a bounded constant factor over the non-temporal store, independent of molecule size",
		Columns: []string{"fanout", "depth", "atoms", "baseline", "temporal(sep)", "overhead"},
	}
	for _, fanout := range []int{2, 4, 8} {
		for _, depth := range []int{2, 3} {
			p := workload.CADParams{Assemblies: 2, Fanout: fanout, Depth: depth, Revisions: 3, TimeStep: 10, Seed: 7}
			db, asms, err := BuildCADDB(atom.StrategySeparated, p)
			if err != nil {
				return nil, err
			}
			sch, _ := workload.CADSchema()
			st, err := baseline.NewStore(sch, 2048)
			if err != nil {
				db.Close()
				return nil, err
			}
			ids, err := workload.Apply(workload.CAD(p), &workload.StoreApplier{Store: st})
			if err != nil {
				db.Close()
				return nil, err
			}
			mt, _ := sch.MoleculeType("Design")
			vt := temporal.Instant(int64(p.Revisions+1) * 10)
			var size int
			dTemporal := measure(40*time.Millisecond, func() {
				mol, err := db.Molecule("Design", asms[0], vt, atom.Now)
				if err != nil {
					panic(err)
				}
				size = mol.Size()
			})
			dBase := measure(40*time.Millisecond, func() {
				if _, err := st.Molecule(mt, ids[0]); err != nil {
					panic(err)
				}
			})
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(fanout), fmt.Sprint(depth), fmt.Sprint(size),
				dur(dBase), dur(dTemporal), ratioDur(dTemporal, dBase),
			})
			db.Close()
		}
	}
	t.Notes = append(t.Notes, "CAD design molecules, 3 weight revisions per part; as-of slice at the newest instant")
	_ = scale
	return t, nil
}

// RF4WhenSelection measures temporal selection with and without the time
// index across selectivities.
func RF4WhenSelection(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "R-F4",
		Title:   "Temporal selection (WHEN ... DURING) with vs. without time index",
		Claim:   "the time index wins at low selectivity; the advantage shrinks as the period widens to cover everything",
		Columns: []string{"period", "matching", "full scan", "time index", "speedup"},
	}
	emps := 400 * int(scale)
	// Staggered hires: employee e joins at t=e and gets one raise at t=e+5,
	// so version start instants spread across [0, emps). The DURING period
	// [0, X) then has genuine selectivity: only early hires can qualify,
	// and the time index prunes everyone else.
	p := workload.PersonnelParams{Depts: 4, Emps: emps, UpdatesPerEmp: 1, MovesPerEmp: 0,
		HireStagger: 1, TimeStep: 5, Seed: 42}
	withIdx, _, err := BuildPersonnelDB(atom.StrategySeparated, p, true)
	if err != nil {
		return nil, err
	}
	defer withIdx.Close()
	without, _, err := BuildPersonnelDB(atom.StrategySeparated, p, false)
	if err != nil {
		return nil, err
	}
	defer without.Close()
	horizon := int64(emps)
	for _, frac := range []float64{0.05, 0.25, 0.5, 1.0} {
		to := int64(frac * float64(horizon))
		q := fmt.Sprintf(`SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [0, %d)`, to)
		var matching int
		dIdx := measure(40*time.Millisecond, func() {
			res, err := withIdx.Query(q)
			if err != nil {
				panic(err)
			}
			matching = len(res.Rows)
		})
		dScan := measure(40*time.Millisecond, func() {
			if _, err := without.Query(q); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("[0, %d)", to), fmt.Sprint(matching),
			dur(dScan), dur(dIdx), ratioDur(dScan, dIdx),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d employees with staggered hire dates, 2 salary versions each; DURING restricts version start below the period end", emps))
	return t, nil
}

// RF5HistoryQuery measures history retrieval cost against window length.
func RF5HistoryQuery(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "R-F5",
		Title:   "History retrieval cost vs. window length",
		Claim:   "history cost is set by placement: embedded reads one record, separated walks its chain, tuple reconstructs from all snapshots; window filtering itself is cheap",
		Columns: []string{"window", "versions", "embedded", "separated", "tuple"},
	}
	const updates = 64
	p := workload.PersonnelParams{Depts: 2, Emps: 20 * int(scale), UpdatesPerEmp: updates, MovesPerEmp: 0, TimeStep: 10, Seed: 42}
	horizon := int64(updates+1) * 10
	dbs := map[atom.Strategy]*core.Engine{}
	ids := map[atom.Strategy][]value.ID{}
	for _, s := range Strategies {
		db, emps, err := BuildPersonnelDB(s, p, false)
		if err != nil {
			return nil, err
		}
		defer db.Close()
		dbs[s] = db
		ids[s] = emps
	}
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		to := int64(frac * float64(horizon))
		row := []string{fmt.Sprintf("[0, %d)", to)}
		var versions int
		for _, s := range Strategies {
			db := dbs[s]
			emp := ids[s][0]
			d := measure(40*time.Millisecond, func() {
				hist, err := db.History(emp, "salary", atom.Now)
				if err != nil {
					panic(err)
				}
				n := 0
				for _, v := range hist {
					if v.Valid.Overlaps(temporal.NewInterval(0, temporal.Instant(to))) {
						n++
					}
				}
				versions = n
			})
			if len(row) == 1 {
				row = append(row, fmt.Sprint(versions))
			}
			row = append(row, dur(d))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("single atom with %d salary versions; full history load then window filter", updates+1))
	return t, nil
}

// RF6BufferPool measures time-slice scans against pool size.
func RF6BufferPool(scale Scale, dir string) (*Table, error) {
	t := &Table{
		ID:      "R-F6",
		Title:   "Buffer-pool sensitivity: scan latency and hit ratio vs. pool size",
		Claim:   "latency falls and hit ratio rises until the working set fits; beyond that, more memory buys nothing",
		Columns: []string{"pool pages", "pool MiB", "scan latency", "hit ratio"},
	}
	// Build a file-backed database larger than the smallest pools.
	p := workload.PersonnelParams{Depts: 8, Emps: 400 * int(scale), UpdatesPerEmp: 8, MovesPerEmp: 0, TimeStep: 10, Seed: 42}
	path := dir + "/pool.tdb"
	db, err := core.Open(core.Options{Path: path, PoolPages: 4096})
	if err != nil {
		return nil, err
	}
	if err := installSchema(db, workload.PersonnelSchema); err != nil {
		db.Close()
		return nil, err
	}
	app := workload.NewEngineApplier(db, 256)
	ids, err := workload.Apply(workload.Personnel(p), app)
	if err != nil {
		db.Close()
		return nil, err
	}
	if err := app.Flush(); err != nil {
		db.Close()
		return nil, err
	}
	emps := ids[p.Depts:]
	if err := db.Close(); err != nil {
		return nil, err
	}
	for _, pages := range []int{16, 64, 256, 1024} {
		db, err := core.Open(core.Options{Path: path, PoolPages: pages})
		if err != nil {
			return nil, err
		}
		vt := temporal.Instant(90)
		d := measure(60*time.Millisecond, func() {
			if _, err := scanCurrentSalaries(db, emps, vt, atom.Now); err != nil {
				panic(err)
			}
		})
		stats := db.Stats().Pool
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pages), fmt.Sprintf("%.1f", float64(pages)*8192/(1<<20)),
			dur(d), fmt.Sprintf("%.3f", stats.HitRatio()),
		})
		db.Close()
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d employees, 8 versions each, file-backed; repeated full time-slice scans", p.Emps))
	return t, nil
}
