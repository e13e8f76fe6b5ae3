package experiments

import (
	"fmt"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// RT11Tiering measures what the history-tiering pipeline buys: two
// file-backed databases take the identical deep-update workload, one
// untreated and one running periodic compact+archive passes as it grows.
// The tiered store's hot page count must stay bounded while the untreated
// one grows with history depth, current-state scans must not regress, and
// deep AS OF scans (served from the cold archive on the tiered side) must
// return byte-identical answers — the experiment fails on any divergence.
func RT11Tiering(scale Scale, dir string) (*Table, error) {
	t := &Table{
		ID:    "R-T11",
		Title: "History tiering: hot-store size and scan latency vs. history depth",
		Claim: "periodic compact+archive bounds the hot store as histories deepen; NOW scans ride the smaller hot store, deep ASOF pays sequential cold reads, answers are identical",
		Columns: []string{"updates/emp", "hot pages", "hot (tiered)", "archive KiB",
			"NOW scan", "NOW (tiered)", "deep ASOF", "deep ASOF (tiered)"},
	}
	emps := 20 * int(scale)
	const hotWindow = 8 // transaction instants each tiering pass keeps hot
	for _, updates := range []int{16, 64, 256} {
		plain, err := buildTieredDB(fmt.Sprintf("%s/rt11-plain-%d.tdb", dir, updates), emps, updates, 0, hotWindow)
		if err != nil {
			return nil, err
		}
		tiered, err := buildTieredDB(fmt.Sprintf("%s/rt11-tiered-%d.tdb", dir, updates), emps, updates, 32, hotWindow)
		if err != nil {
			plain.db.Close()
			return nil, err
		}

		// Differential guarantee before timing anything: the tiered store
		// answers every probe identically to the untreated one. Tiering
		// passes tick the transaction clock, so "just after round N" is a
		// different raw instant in each store — probe each at its own.
		nowVT := temporal.Instant(updates + 1)
		deepVT := temporal.Instant(updates / 4)
		for _, probe := range []struct {
			vt                temporal.Instant
			plainTT, tieredTT temporal.Instant
		}{
			{nowVT, atom.Now, atom.Now},
			{deepVT, atom.Now, atom.Now},
			{deepVT, plain.deepTT, tiered.deepTT},
			{nowVT, plain.deepTT, tiered.deepTT},
		} {
			a, err := scanCurrentSalaries(plain.db, plain.ids, probe.vt, probe.plainTT)
			if err != nil {
				return nil, fmt.Errorf("R-T11 plain scan: %w", err)
			}
			b, err := scanCurrentSalaries(tiered.db, tiered.ids, probe.vt, probe.tieredTT)
			if err != nil {
				return nil, fmt.Errorf("R-T11 tiered scan: %w", err)
			}
			if a != b {
				return nil, fmt.Errorf("R-T11 depth %d: tiered store DIVERGED at vt=%d tt=%d/%d: %d vs %d",
					updates, probe.vt, probe.plainTT, probe.tieredTT, a, b)
			}
		}

		now := func(db *core.Engine, ids []value.ID) time.Duration {
			return measure(40*time.Millisecond, func() {
				if _, err := scanCurrentSalaries(db, ids, nowVT, atom.Now); err != nil {
					panic(err)
				}
			})
		}
		deep := func(db *core.Engine, ids []value.ID, tt temporal.Instant) time.Duration {
			return measure(40*time.Millisecond, func() {
				if _, err := scanCurrentSalaries(db, ids, deepVT, tt); err != nil {
					panic(err)
				}
			})
		}
		nowPlain, nowTiered := now(plain.db, plain.ids), now(tiered.db, tiered.ids)
		deepPlain := deep(plain.db, plain.ids, plain.deepTT)
		deepTiered := deep(tiered.db, tiered.ids, tiered.deepTT)

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(updates),
			fmt.Sprint(plain.db.Stats().DevicePags),
			fmt.Sprint(tiered.db.Stats().DevicePags),
			fmt.Sprintf("%.1f", float64(tiered.db.Stats().ArchiveBytes)/1024),
			dur(nowPlain), dur(nowTiered),
			dur(deepPlain), dur(deepTiered),
		})
		plain.db.Close()
		tiered.db.Close()
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d employees, separated strategy, file-backed; tiered side runs compact+archive every 32 commits keeping the last %d instants hot", emps, hotWindow),
		"deep ASOF probes read below the tiering watermark (cold archive on the tiered side); all probes verified byte-identical across the two stores before timing")
	return t, nil
}

// tieredDB is one built store plus the probe coordinates shared by the pair.
type tieredDB struct {
	db     *core.Engine
	ids    []value.ID
	deepTT temporal.Instant // transaction instant one quarter into the build
}

// buildTieredDB loads emps employees with `updates` salary rounds each, one
// commit per round. With tierEvery > 0, every tierEvery commits a tiering
// pass archives versions closed more than hotWindow instants ago — the
// grow-and-tier loop a long-lived store runs.
func buildTieredDB(path string, emps, updates, tierEvery, hotWindow int) (*tieredDB, error) {
	db, err := core.Open(core.Options{Path: path, Strategy: atom.StrategySeparated, PoolPages: 4096})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*tieredDB, error) {
		db.Close()
		return nil, err
	}
	if err := installSchema(db, workload.PersonnelSchema); err != nil {
		return fail(err)
	}
	tx, err := db.Begin()
	if err != nil {
		return fail(err)
	}
	var ids []value.ID
	for e := 0; e < emps; e++ {
		id, err := tx.Insert("Emp", map[string]value.V{
			"name": value.String_(fmt.Sprintf("t%d", e)), "salary": value.Int(0),
		}, 0)
		if err != nil {
			return fail(err)
		}
		ids = append(ids, id)
	}
	if err := tx.Commit(); err != nil {
		return fail(err)
	}
	out := &tieredDB{db: db, ids: ids}
	for i := 1; i <= updates; i++ {
		tx, err := db.Begin()
		if err != nil {
			return fail(err)
		}
		for e, id := range ids {
			// Small value domain: adjacent rounds repeat values, so the
			// compaction stage has equal-valued runs to coalesce.
			if err := tx.Set(id, "salary", value.Int(int64((i*7+e)%16)), temporal.Instant(i)); err != nil {
				return fail(err)
			}
		}
		if i == updates/4 {
			out.deepTT = tx.TT()
		}
		if err := tx.Commit(); err != nil {
			return fail(err)
		}
		if tierEvery > 0 && i%tierEvery == 0 {
			wm := db.Now()
			if wm > temporal.Instant(hotWindow) {
				if _, err := db.Archive(wm - temporal.Instant(hotWindow)); err != nil {
					return fail(fmt.Errorf("tiering pass at round %d: %w", i, err))
				}
			}
		}
	}
	if err := db.Checkpoint(); err != nil {
		return fail(err)
	}
	return out, nil
}
