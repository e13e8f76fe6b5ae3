package core

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/index"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// treePairs lists a tree's (key, value) pairs in key order, each as the
// key in hex, a space and the value, so the strings sort as the keys do.
func treePairs(t *testing.T, pool *storage.BufferPool, root storage.PageID) []string {
	t.Helper()
	tree, err := index.Open(pool, root)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	if err := tree.Scan(nil, func(k []byte, v uint64) (bool, error) {
		pairs = append(pairs, fmt.Sprintf("%x %d", k, v))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return pairs
}

// samePairs fails unless two trees' pair lists are equal.
func samePairs(t *testing.T, what string, got, want []string) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: %d pairs, want %d; first difference at %d: %s, want %s", what, len(got), len(want), i, got[i], want[i])
		}
	}
	t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
}

// rebuildHistory commits a history that exercises every record the index
// step meets: inserts, updates over bounded valid intervals (beyond the
// tuple strategy, which cannot express them), department moves, a delete
// and a revive, a vacuum and an archive run, and commits after both.
func rebuildHistory(t *testing.T, e *Engine, strat atom.Strategy) {
	t.Helper()
	defineTestSchema(t, e)
	commit := func(f func(tx *Txn) error) {
		t.Helper()
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := f(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var depts, emps []value.ID
	commit(func(tx *Txn) error {
		for i := 0; i < 3; i++ {
			id, err := tx.Insert("Dept", map[string]value.V{"name": value.String_(fmt.Sprint("d", i)), "budget": value.Int(100)}, 0)
			if err != nil {
				return err
			}
			depts = append(depts, id)
		}
		for i := 0; i < 12; i++ {
			id, err := tx.Insert("Emp", map[string]value.V{"name": value.String_(fmt.Sprint("e", i)),
				"salary": value.Int(1000), "dept": value.Ref(depts[i%3])}, temporal.Instant(i))
			if err != nil {
				return err
			}
			emps = append(emps, id)
		}
		return nil
	})
	var mid temporal.Instant
	for i := 0; i < 36; i++ {
		emp, vt := emps[i*5%len(emps)], temporal.Instant(20+i)
		commit(func(tx *Txn) error {
			switch {
			case i%4 == 1:
				return tx.Set(emp, "dept", value.Ref(depts[i%3]), vt)
			case i%4 == 3 && strat != atom.StrategyTuple:
				return tx.Update(emp, "salary", value.Int(int64(5000+i)), temporal.Interval{From: vt - 15, To: vt - 5})
			default:
				return tx.Set(emp, "salary", value.Int(int64(2000+i)), vt)
			}
		})
		if i == 18 {
			mid = e.Now()
		}
	}
	commit(func(tx *Txn) error { return tx.Delete(emps[1], 70) })
	commit(func(tx *Txn) error { return tx.Revive(emps[1], 90) })
	if _, err := e.Vacuum(mid); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Archive(mid); err != nil {
		t.Fatal(err)
	}
	commit(func(tx *Txn) error { return tx.Set(emps[2], "salary", value.Int(7777), 100) })
	commit(func(tx *Txn) error {
		_, err := tx.Insert("Emp", map[string]value.V{"name": value.String_("late"), "salary": value.Int(1)}, 100)
		return err
	})
}

// TestRebuildMatchesIncremental: the index state is derived one way. After
// an unclean open rebuilds the indexes, the primary and type trees hold
// exactly the pairs the leader kept incrementally, and the pairs a
// follower's notes kept from the same log; the time and value trees hold
// exactly the entries each atom's full-fidelity Load implies.
func TestRebuildMatchesIncremental(t *testing.T) {
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Path: filepath.Join(dir, "leader"), Strategy: strat, TimeIndex: true, ValueIndex: true}
			leader, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			rebuildHistory(t, leader, strat)
			roots := leader.atoms.Roots()
			primary := treePairs(t, leader.idxPool, roots.Primary)
			types := treePairs(t, leader.idxPool, roots.Type)

			f, err := Open(Options{Path: filepath.Join(dir, "follower"), Strategy: strat, Follower: true})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.ApplyReplicated(shipAll(t, leader)); err != nil {
				t.Fatal(err)
			}
			froots := f.atoms.Roots()
			samePairs(t, "follower primary", treePairs(t, f.idxPool, froots.Primary), primary)
			samePairs(t, "follower type", treePairs(t, f.idxPool, froots.Type), types)
			if froots.NextID != roots.NextID {
				t.Fatalf("follower next surrogate %d, leader %d", froots.NextID, roots.NextID)
			}

			if err := leader.Crash(); err != nil {
				t.Fatal(err)
			}
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if !e.Recovered {
				t.Fatal("reopen after the crash did not rebuild")
			}
			rroots := e.atoms.Roots()
			rebuilt := treePairs(t, e.idxPool, rroots.Primary)
			samePairs(t, "rebuilt primary", rebuilt, primary)
			samePairs(t, "rebuilt type", treePairs(t, e.idxPool, rroots.Type), types)
			if rroots.NextID != roots.NextID {
				t.Fatalf("rebuilt next surrogate %d, leader %d", rroots.NextID, roots.NextID)
			}

			// The time and value entries, derived here from each atom's Load
			// in the trees' key layouts: (type, attr, valid start, atom) and
			// (type, attr, value, atom).
			var times, values []string
			for _, pair := range rebuilt {
				var key []byte
				if _, err := fmt.Sscanf(pair, "%x ", &key); err != nil {
					t.Fatal(err)
				}
				id := value.ID(binary.BigEndian.Uint64(key))
				a, err := e.atoms.Load(id)
				if err != nil {
					t.Fatal(err)
				}
				for _, ad := range a.Attrs {
					prefix := append(append(append([]byte(a.Type), 0), ad.Name...), 0)
					for _, ver := range ad.Versions {
						k := temporal.AppendInstant(slices.Clone(prefix), ver.Valid.From)
						times = append(times, fmt.Sprintf("%x %d", binary.BigEndian.AppendUint64(k, uint64(id)), id))
						if !ver.Val.IsNull() {
							k := value.AppendKey(slices.Clone(prefix), ver.Val)
							values = append(values, fmt.Sprintf("%x %d", binary.BigEndian.AppendUint64(k, uint64(id)), id))
						}
					}
				}
			}
			for _, l := range [][]string{times, values} {
				slices.Sort(l)
			}
			times, values = slices.Compact(times), slices.Compact(values)
			samePairs(t, "rebuilt time", treePairs(t, e.idxPool, rroots.Time), times)
			samePairs(t, "rebuilt value", treePairs(t, e.idxPool, rroots.Value), values)
		})
	}
}
