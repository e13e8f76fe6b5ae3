package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/obs"
	"tcodm/internal/query"
	"tcodm/internal/temporal"
)

// One slice_scan cycle is these five statements on one store.
var scanStatements = []struct{ label, text string }{
	{"S1", `SELECT (name, salary) FROM Emp WHERE salary > 4000 AT 15`},
	{"S2", `SELECT (name, salary) FROM Emp WHERE salary > 9000`},
	{"S3", `SELECT (name, TAVG(salary), CHANGES(salary)) FROM Emp DURING [0, 330) AT 300`},
	{"S4", `SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 45`},
	{"S5", `SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [0, 100)`},
}

var scanOrder = []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple}

// scanStore is one open personnel-S store.
type scanStore struct {
	st *store
	db *core.Engine
}

// scanEnv is the three personnel-S stores, one per strategy, built from
// one op list. digests holds the first answer seen per statement; every
// later answer from any store in any cycle must hash the same.
type scanEnv struct {
	stores  []scanStore
	digests map[string]uint64
}

func openScan(cfg runConfig) (*scanEnv, error) {
	env := &scanEnv{digests: map[string]uint64{}}
	for _, strat := range scanOrder {
		st, err := buildStore(filepath.Join(cfg.dir, "personnel-S-"+strat.String()),
			personnelS(strat, cfg.scale), cfg.seed)
		if err != nil {
			env.close()
			return nil, err
		}
		db, err := core.Open(engineOptions(st.path, strat, fitsPool, false))
		if err != nil {
			env.close()
			return nil, err
		}
		env.stores = append(env.stores, scanStore{st, db})
	}
	return env, nil
}

func (e *scanEnv) close() error {
	var first error
	for _, s := range e.stores {
		if err := s.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *scanEnv) separated() scanStore { return e.stores[1] }

// cycle runs S1-S5 on one store and checks every answer: against the
// oracle where the oracle states it (S1, S2, S4), and against the digest of
// the same statement's first answer (all five, across strategies and
// cycles). It returns the time the five statements took, checks excluded.
func (e *scanEnv) cycle(s scanStore, tr *tracer, request int, acc *scanAccount) (time.Duration, error) {
	ctx := context.Background()
	var dur time.Duration
	for _, stmt := range scanStatements {
		t0 := time.Now()
		id := tr.begin("core.query", stmt.label, 0, request)
		res, err := s.db.QueryWith(ctx, stmt.text, core.QueryOptions{})
		tr.end(id)
		dur += time.Since(t0)
		if err != nil {
			return dur, fmt.Errorf("%s on %v: %w", stmt.label, s.st.spec.strategy, err)
		}
		if acc != nil {
			acc.res.Add(res.Res)
			acc.rows += len(res.Rows)
		}
		if err := checkScan(s.st.oracle, stmt.label, res); err != nil {
			return dur, fmt.Errorf("%s on %v: %w", stmt.label, s.st.spec.strategy, err)
		}
		d := digestRows(res)
		if first, seen := e.digests[stmt.label]; !seen {
			e.digests[stmt.label] = d
		} else if first != d {
			return dur, fmt.Errorf("%s on %v: %d rows hash %x, first answer hashed %x",
				stmt.label, s.st.spec.strategy, len(res.Rows), d, first)
		}
	}
	return dur, nil
}

type scanAccount struct {
	res  obs.Resources
	rows int
}

// digestRows hashes a result's rows independent of their order.
func digestRows(res *query.Result) uint64 {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		lines[i] = strings.Join(cells, "\x1f")
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func checkScan(o *oracle, label string, res *query.Result) error {
	filtered := func(vt temporal.Instant, above int64) error {
		want := map[string]int64{}
		for e, name := range o.names {
			if s := o.salaryAt(e, vt); s > above {
				want[name] = s
			}
		}
		if len(res.Rows) != len(want) {
			return fmt.Errorf("got %d rows, want %d", len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			if s, ok := want[row[0].AsString()]; !ok || s != row[1].AsInt() {
				return fmt.Errorf("row %v not in the oracle's answer", row)
			}
		}
		return nil
	}
	switch label {
	case "S1":
		return filtered(15, 4000)
	case "S2":
		return filtered(nowVT, 9000)
	case "S4":
		got := map[string]int64{}
		for _, row := range res.Rows {
			got[row[0].AsString()] = row[1].AsInt()
		}
		for d := 0; d < o.depts; d++ {
			name := fmt.Sprintf("dept-%02d", d)
			if g, w := got[name], int64(o.staffAt(d, 45)); g != w {
				return fmt.Errorf("%s has %d staff at 45, want %d", name, g, w)
			}
		}
	}
	return nil
}

func runSliceScan(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceSliceScan(cfg)
	}
	r := newResult(cfg)
	t0 := time.Now()
	env, err := openScan(cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	var w window
	var tl tally
	lats := make([]samples, len(env.stores))
	cycles := 0
	elapsed, alloc := w.run(cfg.seconds, func() {
		for i := 0; ; i = (i + 1) % len(env.stores) {
			p := w.phase.Load()
			if p == phaseStop {
				return
			}
			d, err := env.cycle(env.stores[i], nil, 0, nil)
			if p != phaseMeasure || w.phase.Load() != phaseMeasure {
				continue
			}
			tl.check(err)
			if err == nil {
				lats[i].add(d)
				cycles++
			}
		}
	})

	sep := env.separated()
	if err := env.close(); err != nil {
		return nil, err
	}
	stored, err := storedBytes(sep.st.path)
	if err != nil {
		return nil, err
	}
	tl.into(r)
	for i, strat := range scanOrder {
		r.notef("%s cycle p50 %.3f ms (%d cycles)", strat, ms(lats[i].sorted().quantile(0.5)), len(lats[i]))
	}
	// About 55 separated cycles fit the window: p80 is the highest
	// percentile with ten samples beyond it.
	return r, finishEndToEnd(r, setup, cycles, elapsed, lats[1], 0.80, alloc, cycles, stored, sep.st.userBytes)
}

func traceSliceScan(cfg runConfig) (*result, error) {
	r := newResult(cfg)
	env, err := openScan(cfg)
	if err != nil {
		return nil, err
	}
	var tl tally
	tr := newTracer()
	l := layerSet{}
	cycles := cfg.n(20)
	request := 0
	var untraced1, traced, untraced2 time.Duration
	for _, s := range env.stores {
		strat := s.st.spec.strategy
		name := identity
		if strat != atom.StrategySeparated {
			name = func(m string) string { return withStrategy(m, strat.String()) }
		}
		run := func(tr *tracer, acc *scanAccount) time.Duration {
			d, err := env.cycle(s, tr, request, acc)
			tl.check(err)
			return d
		}
		for i := 0; i < 2; i++ { // fill the pool
			run(nil, nil)
		}
		for i := 0; i < cycles; i++ {
			untraced1 += run(nil, nil)
		}

		var acc scanAccount
		var lat samples
		firstSpan := len(tr.spans)
		before := snapshot(s.db.Metrics())
		for i := 0; i < cycles; i++ {
			d := run(tr, &acc)
			lat.add(d)
			traced += d
			request++
		}
		d := snapshot(s.db.Metrics()).delta(before)
		for i := 0; i < cycles; i++ {
			untraced2 += run(nil, nil)
		}
		storageLayers(l, d, uint64(cycles), name)
		l[name("scan.cycle_ms_p50")] = ms(lat.sorted().quantile(0.5))
		if strat == atom.StrategySeparated {
			commonLayers(l, d, uint64(cycles))
			l["query.atoms_per_row"] = perOp(acc.res.Atoms, uint64(acc.rows))
			// Only this store's statements: the tracer also holds the
			// embedded store's.
			own := tracer{spans: tr.spans[firstSpan:]}
			l["core.query_us_p50"] = us(own.durations("core.query", "").quantile(0.5))
		}
		if err := scanDescent(l, name, tr, s, request); err != nil {
			return nil, err
		}
		request++
	}
	l["obs.trace_overhead_ratio"] = overheadRatio(untraced1, traced, untraced2)

	var texts []string
	for _, stmt := range scanStatements {
		texts = append(texts, stmt.text)
	}
	if l["query.parse_us"], err = probeParse(texts); err != nil {
		return nil, err
	}
	sep := env.separated()
	if err := storeLayers(l, cfg, sep.db, sep.st); err != nil {
		return nil, err
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	return sealTraced(cfg, r, l, tr, &tl)
}

// scanDescent replays one cycle's inputs at the entry points below the
// executor: every employee's past and NOW time-slice, every salary history,
// every department's molecule.
func scanDescent(l layerSet, name func(string) string, tr *tracer, s scanStore, request int) error {
	atoms := s.db.Atoms()
	emps := float64(len(s.st.empIDs))
	timeAll := func(span, label string, fn func() error) (float64, error) {
		id := tr.begin(span, label, 0, request)
		err := fn()
		tr.end(id)
		sp := tr.spans[id-1]
		return us(sp.EndNS - sp.StartNS), err
	}
	sliceAt := func(vt temporal.Instant) func() error {
		return func() error {
			for _, id := range s.st.empIDs {
				if _, err := atoms.StateAt(id, vt, atom.Now); err != nil {
					return err
				}
			}
			return nil
		}
	}
	past, err := timeAll("atom.state_at", "past", sliceAt(15))
	if err != nil {
		return err
	}
	now, err := timeAll("atom.state_at", "now", sliceAt(nowVT))
	if err != nil {
		return err
	}
	hist, err := timeAll("atom.history", "", func() error {
		for _, id := range s.st.empIDs {
			if _, err := atoms.History(id, "salary", atom.Now); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	molAtoms := 0
	mol, err := timeAll("core.molecule", "", func() error {
		for _, id := range s.st.deptIDs {
			m, err := s.db.Molecule("DeptStaff", id, 45, atom.Now)
			if err != nil {
				return err
			}
			molAtoms += m.Size()
		}
		return nil
	})
	if err != nil {
		return err
	}
	l[name("atom.state_at_past_us")] = past / emps
	l[name("atom.history_us")] = hist / emps
	l[name("molecule.materialize_us_per_atom")] = mol / float64(max(molAtoms, 1))
	if s.st.spec.strategy == atom.StrategySeparated {
		l["atom.state_at_now_us"] = now / emps
		l["molecule.atoms_per_molecule"] = float64(molAtoms) / float64(len(s.st.deptIDs))
	}
	return nil
}
