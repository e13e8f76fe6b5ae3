package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/temporal"
)

const (
	// writeInterval paces the mixed workloads' one writer: an open loop at
	// 200 commits/s, each commit timed from the instant it was due.
	writeInterval = 5 * time.Millisecond
	// moleculeShare of the reader's operations materialize a department's
	// DeptStaff molecule; the rest time-slice one employee.
	moleculeShare = 0.05
)

// waitUntil returns at the due instant: it sleeps until shortly before and
// yields for the rest, because time.Sleep alone overshoots by about half a
// millisecond beside a busy reader, which is a quarter of the latency the
// writer is there to measure.
func waitUntil(due time.Time) {
	if wait := time.Until(due) - time.Millisecond; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// coldPool is the mixed workloads' pool: coldShare of the store's pages.
func coldPool(st *store) int { return max(int(coldShare*float64(st.pages)), 16) }

// reader draws and checks the mixed workloads' reads: uniform employee (or
// department) at a uniform valid time no later than the horizon, which the
// writer's proactive updates never change.
type reader struct {
	db  *core.Engine
	st  *store
	rng *rand.Rand
}

func (rd *reader) read(tr *tracer, request int) (time.Duration, error) {
	o := rd.st.oracle
	vt := temporal.Instant(rd.rng.Int63n(int64(horizon) + 1))
	if rd.rng.Float64() < moleculeShare {
		d := rd.rng.Intn(len(rd.st.deptIDs))
		t0 := time.Now()
		id := tr.begin("core.read", "molecule", 0, request)
		m, err := rd.db.Molecule("DeptStaff", rd.st.deptIDs[d], vt, atom.Now)
		tr.end(id)
		dur := time.Since(t0)
		if err != nil {
			return dur, err
		}
		if g, w := len(m.AtomsOfType("Emp")), o.staffAt(d, vt); g != w {
			return dur, fmt.Errorf("DeptStaff of dept-%02d at %d has %d employees, want %d", d, vt, g, w)
		}
		return dur, nil
	}
	e := rd.rng.Intn(len(rd.st.empIDs))
	t0 := time.Now()
	id := tr.begin("core.read", "state_at", 0, request)
	state, err := rd.db.StateAt(rd.st.empIDs[e], vt, atom.Now)
	tr.end(id)
	dur := time.Since(t0)
	if err != nil {
		return dur, err
	}
	if g, w := state.Vals["salary"].AsInt(), o.salaryAt(e, vt); g != w {
		return dur, fmt.Errorf("%s at %d: salary %d, want %d", o.names[e], vt, g, w)
	}
	if g, w := state.Vals["dept"].AsID(), rd.st.deptIDs[o.deptAt(e, vt)]; g != w {
		return dur, fmt.Errorf("%s at %d: dept %v, want %v", o.names[e], vt, g, w)
	}
	return dur, nil
}

// runMixed runs the shared mixed load and reports it from the reader's side
// (mixed_read) or the paced writer's (mixed_write).
func runMixed(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceMixed(cfg)
	}
	r := newResult(cfg)
	t0 := time.Now()
	st, db, err := openLeader(cfg, coldPool)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	var w window
	var tl tally
	var seq atomic.Int64
	var reads, writes, lateness samples
	rd := &reader{db: db, st: st, rng: rand.New(rand.NewSource(cfg.seed*31 + 7))}
	c := newCommitter(db, st, &seq, cfg.seed, 0)
	c.hires = false
	elapsed, alloc := w.run(cfg.seconds,
		func() {
			w.closedLoop(&reads, &tl, func() (time.Duration, error) { return rd.read(nil, 0) }, nil)
		},
		func() {
			// Open loop: commit i is due at base + i*interval whether or
			// not the one before it is done, and is timed from then.
			base := time.Now()
			for i := 0; ; i++ {
				due := base.Add(time.Duration(i) * writeInterval)
				waitUntil(due)
				if w.phase.Load() == phaseStop {
					return
				}
				late := time.Since(due)
				_, err := c.txn(nil, 0)
				d := time.Since(due)
				if w.phase.Load() == phaseMeasure && !due.Before(w.start) {
					tl.check(err)
					if err == nil {
						writes.add(d)
						lateness.add(late)
					}
				}
			}
		})

	// No crash here: durable_write carries the crash check (README,
	// "Findings" 2 and 3 are why it is not repeated on the cold pool).
	verifyAcks(db, st, c.acks, &tl)
	stored, user, err := finishStore(db, st, c)
	if err != nil {
		return nil, err
	}
	tl.into(r)
	late := lateness.sorted()
	r.notef("reader: %d reads, p50 %.4f ms, p99 %.4f ms", len(reads), ms(reads.sorted().quantile(0.5)), ms(reads.sorted().quantile(0.99)))
	r.notef("writer: %d commits paced at %v, p50 %.4f ms, p99 %.4f ms from due time; generator ran late by p50 %.4f ms, max %.4f ms",
		len(writes), writeInterval, ms(writes.sorted().quantile(0.5)), ms(writes.sorted().quantile(0.99)),
		ms(late.quantile(0.5)), ms(late.quantile(1)))
	primary, tailQ := reads, 0.99
	if cfg.workload == "mixed_write" {
		// 3 000 paced commits per run: p95 is the highest percentile that
		// run-to-run noise leaves usable (150 samples beyond it).
		primary, tailQ = writes, 0.95
	}
	return r, finishEndToEnd(r, setup, len(primary), elapsed, primary, tailQ, alloc,
		len(reads)+len(writes), stored, user)
}

func traceMixed(cfg runConfig) (*result, error) {
	r := newResult(cfg)
	pre, err := buildStore(filepath.Join(cfg.dir, "personnel-L"), personnelL(cfg.scale), cfg.seed)
	if err != nil {
		return nil, err
	}
	var tl tally
	nReads, writeEvery := cfg.n(20000), 100
	// pass runs the fixed sequence (one write after every 100th read) on a
	// fresh copy of the pre-run store, so both passes see the same bytes
	// and the same cold pool.
	pass := func(name string, tr *tracer, l layerSet) (time.Duration, error) {
		st := *pre
		st.path = filepath.Join(cfg.dir, name)
		if err := copyStore(pre.path, st.path); err != nil {
			return 0, err
		}
		db, err := core.Open(engineOptions(st.path, st.spec.strategy, coldPool(&st), true))
		if err != nil {
			return 0, err
		}
		var seq atomic.Int64
		rd := &reader{db: db, st: &st, rng: rand.New(rand.NewSource(cfg.seed*31 + 7))}
		c := newCommitter(db, &st, &seq, cfg.seed, 0)
		c.hires = false
		before := snapshot(db.Metrics())
		nWrites := 0
		t0 := time.Now()
		for i := 0; i < nReads; i++ {
			_, err := rd.read(tr, i)
			tl.check(err)
			if (i+1)%writeEvery == 0 {
				_, err := c.txn(tr, nReads+nWrites)
				tl.check(err)
				nWrites++
			}
		}
		dur := time.Since(t0)
		if l != nil {
			d := snapshot(db.Metrics()).delta(before)
			commonLayers(l, d, uint64(nReads+nWrites))
			walLayers(l, d, uint64(nWrites), c.user)
			if err := storeLayers(l, cfg, db, &st); err != nil {
				return 0, err
			}
		}
		verifyAcks(db, &st, c.acks, &tl)
		return dur, db.Close()
	}
	untraced1, err := pass("untraced-1", nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	l := layerSet{}
	traced, err := pass("traced", tr, l)
	if err != nil {
		return nil, err
	}
	untraced2, err := pass("untraced-2", nil, nil)
	if err != nil {
		return nil, err
	}
	l["obs.trace_overhead_ratio"] = overheadRatio(untraced1, traced, untraced2)
	l["core.read_us_p50"] = us(tr.durations("core.read", "").quantile(0.5))
	l["atom.state_at_past_us"] = usF(tr.durations("core.read", "state_at").mean())
	mol := tr.durations("core.read", "molecule")
	perDept := float64(pre.spec.emps)/float64(pre.spec.depts) + 1
	l["molecule.atoms_per_molecule"] = perDept
	l["molecule.materialize_us_per_atom"] = usF(mol.mean()) / perDept
	l["txn.begin_us_p50"] = us(tr.durations("txn.begin", "").quantile(0.5))
	l["txn.apply_us_p50"] = us(tr.durations("txn.apply", "").quantile(0.5))
	l["txn.commit_us_p50"] = us(tr.durations("txn.commit", "").quantile(0.5))
	return sealTraced(cfg, r, l, tr, &tl)
}
