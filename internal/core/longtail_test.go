package core_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// longTail is the redo the long-tail tests ask for: single-update commits
// after a checkpoint, enough for histories to outgrow their pages, move
// behind stubs and spill into overflow chains.
const longTail = 3000

// ack is one acknowledged salary assignment.
type ack struct {
	emp  value.ID
	from temporal.Instant
	val  int64
}

// openPersonnel opens a file-backed store at path holding a small
// personnel history, checkpointed.
func openPersonnel(t *testing.T, path string, strat atom.Strategy) (*core.Engine, []value.ID) {
	t.Helper()
	e, err := core.Open(core.Options{Path: path, Strategy: strat, TimeIndex: true})
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
	p := workload.PersonnelParams{Depts: 4, Emps: 40, UpdatesPerEmp: 2, MovesPerEmp: 1, TimeStep: 10, Seed: 1}
	app := workload.NewEngineApplier(e, 64)
	ids, err := workload.Apply(workload.Personnel(p), app)
	if err == nil {
		err = app.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return e, ids[p.Depts:]
}

// commitTail runs n single-update commits over a dozen employees, calling
// ship after every batch of 50. It returns every acknowledged write.
func commitTail(t *testing.T, e *core.Engine, emps []value.ID, n int, ship func()) []ack {
	t.Helper()
	var acks []ack
	for i := 0; i < n; i++ {
		a := ack{emp: emps[i%12], from: temporal.Instant(1000 + i), val: int64(5000 + i)}
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Set(a.emp, "salary", value.Int(a.val), a.from); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		acks = append(acks, a)
		if ship != nil && (i+1)%50 == 0 {
			ship()
		}
	}
	return acks
}

// verifyAcks reads every acknowledged write back.
func verifyAcks(t *testing.T, e *core.Engine, acks []ack) {
	t.Helper()
	for i, a := range acks {
		st, err := e.StateAt(a.emp, a.from, atom.Now)
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if got := st.Vals["salary"].AsInt(); got != a.val {
			t.Fatalf("ack %d: salary at vt %d = %d, want %d", i, a.from, got, a.val)
		}
	}
}

// snapshotTo bootstraps a follower's files at path from leader.
func snapshotTo(t *testing.T, leader *core.Engine, path string) uint64 {
	t.Helper()
	var out bytes.Buffer
	var start uint64
	if _, err := leader.Snapshot(func(s, _ uint64) error { start = s; return nil }, &out); err != nil {
		t.Fatal(err)
	}
	raw := out.Bytes()
	n := binary.BigEndian.Uint64(raw[:8])
	if err := os.WriteFile(path, raw[8:8+n], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".arc", raw[8+n:], 0o644); err != nil {
		t.Fatal(err)
	}
	return start
}

// samePages checks, after both stores checkpoint, that every heap and
// overflow page the leader uses is byte-identical in the follower's file.
func samePages(t *testing.T, leader, follower *core.Engine, lpath, fpath string) {
	t.Helper()
	for _, e := range []*core.Engine{leader, follower} {
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	free := map[storage.PageID]bool{}
	for _, id := range leader.Pool().FreePages() {
		free[id] = true
	}
	lraw, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	fraw, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for off := storage.PageSize; off+storage.PageSize <= len(lraw); off += storage.PageSize {
		id := storage.PageID(off / storage.PageSize)
		lp := lraw[off : off+storage.PageSize]
		if typ := storage.PageType(lp[8]); free[id] || typ != storage.PageHeap && typ != storage.PageOverflow {
			continue
		}
		compared++
		if off+storage.PageSize > len(fraw) || !bytes.Equal(lp, fraw[off:off+storage.PageSize]) {
			t.Fatalf("page %d differs between leader and follower", id)
		}
	}
	if compared == 0 {
		t.Fatal("no heap page compared")
	}
}

// TestLongTail redoes 3 000 single-update commits after a checkpoint — by
// crash recovery, by a follower applying them in 50-commit batches, and by
// that follower's own crash recovery — for every strategy. Every
// acknowledged write must read back, and a follower's heap pages must be
// the leader's, byte for byte.
func TestLongTail(t *testing.T) {
	if testing.Short() {
		t.Skip("long tail")
	}
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String()+"/crash", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db")
			e, emps := openPersonnel(t, path, strat)
			acks := commitTail(t, e, emps, longTail, nil)
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			e2, err := core.Open(core.Options{Path: path})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer e2.Close()
			if rs := e2.RecoveryStats(); !e2.Recovered || rs.Replayed < longTail {
				t.Fatalf("recovered %v, replayed %d", e2.Recovered, rs.Replayed)
			}
			verifyAcks(t, e2, acks)
		})
		for _, crash := range []bool{false, true} {
			name := strat.String() + "/follower"
			if crash {
				name += "-crash"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				lpath, fpath := filepath.Join(dir, "leader"), filepath.Join(dir, "follower")
				leader, emps := openPersonnel(t, lpath, strat)
				defer leader.Close()
				start := snapshotTo(t, leader, fpath)
				f, err := core.Open(core.Options{Path: fpath, Follower: true})
				if err != nil {
					t.Fatal(err)
				}
				cur := leader.Log().Cursor(start)
				acks := commitTail(t, leader, emps, longTail, func() {
					recs, err := cur.Read(1 << 20)
					if err == nil {
						_, err = f.ApplyReplicated(recs)
					}
					if err != nil {
						t.Fatalf("ship: %v", err)
					}
				})
				if crash {
					if err := f.Crash(); err != nil {
						t.Fatal(err)
					}
					if f, err = core.Open(core.Options{Path: fpath, Follower: true}); err != nil {
						t.Fatalf("follower recovery: %v", err)
					}
				}
				defer f.Close()
				if f.Watermark() != leader.Watermark() {
					t.Fatalf("follower watermark %d, leader %d", f.Watermark(), leader.Watermark())
				}
				verifyAcks(t, f, acks)
				ld, err := leader.DigestStore()
				if err != nil {
					t.Fatal(err)
				}
				fd, err := f.DigestStore()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ld, fd) {
					t.Fatal("follower digest differs from the leader's")
				}
				samePages(t, leader, f, lpath, fpath)
			})
		}
	}
}

// TestRecoveryUnderSmallPool redoes far more dirty pages than the pool
// holds: pages redo stamps must be evictable mid-replay.
func TestRecoveryUnderSmallPool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e, emps := openPersonnel(t, path, atom.StrategyTuple)
	acks := commitTail(t, e, emps, longTail, nil)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, err := core.Open(core.Options{Path: path, PoolPages: 16})
	if err != nil {
		t.Fatalf("recovery with a 16-page pool: %v", err)
	}
	defer e2.Close()
	if st := e2.Stats(); st.DevicePags < 50 {
		t.Fatalf("store has only %d pages; the test needs a redo larger than the pool", st.DevicePags)
	}
	verifyAcks(t, e2, acks)
}
