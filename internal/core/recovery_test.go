package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/wal"
)

// verifySalaries checks every employee's salary history against the
// expected per-update values.
func verifySalaries(t *testing.T, e *Engine, emps []value.ID, updates int) {
	t.Helper()
	for i, emp := range emps {
		for u := 0; u < updates; u++ {
			vt := temporal.Instant(100*u + 50)
			st, err := e.StateAt(emp, vt, atom.Now)
			if err != nil {
				t.Fatalf("emp %d at vt %d: %v", i, vt, err)
			}
			want := int64(1000*(i+1) + 10*u)
			if got := st.Vals["salary"].AsInt(); got != want {
				t.Errorf("emp %d at vt %d: salary %d, want %d", i, vt, got, want)
			}
		}
	}
}

// TestDoubleRecoveryAllStrategies crashes a database, recovers it, runs a
// checkpoint, crashes again, and recovers again — for every storage
// strategy. The second recovery is the regression surface: a first
// recovery that leaves subtly wrong state (stale page LSNs, bad free
// lists, un-reset clocks) tends to pass its own verification and only
// break the next crash cycle.
func TestDoubleRecoveryAllStrategies(t *testing.T) {
	const nEmps, updates = 4, 3
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.tdb")
			e, err := Open(Options{Path: path, Strategy: strat, SyncOnCommit: true, PoolPages: 32})
			if err != nil {
				t.Fatal(err)
			}
			defineTestSchema(t, e)

			tx, _ := e.Begin()
			dept, err := tx.Insert("Dept", map[string]value.V{
				"name": value.String_("r"), "budget": value.Int(7),
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			var emps []value.ID
			for i := 0; i < nEmps; i++ {
				emp, err := tx.Insert("Emp", map[string]value.V{
					"name":   value.String_(fmt.Sprintf("e%d", i)),
					"salary": value.Int(int64(1000 * (i + 1))),
					"dept":   value.Ref(dept),
				}, 0)
				if err != nil {
					t.Fatal(err)
				}
				emps = append(emps, emp)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for u := 1; u < updates; u++ {
				tx, _ := e.Begin()
				for i, emp := range emps {
					v := value.Int(int64(1000*(i+1) + 10*u))
					if err := tx.Set(emp, "salary", v, temporal.Instant(100*u)); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}

			// First crash: committed work since bootstrap lives in the log.
			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			e2, err := Open(Options{Path: path, PoolPages: 32})
			if err != nil {
				t.Fatalf("first recovery: %v", err)
			}
			if !e2.Recovered {
				t.Error("first reopen not flagged as recovered")
			}
			verifySalaries(t, e2, emps, updates)

			// Checkpoint, then crash again: the second recovery starts from
			// the first recovery's checkpoint image.
			if err := e2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			tx2, err := e2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx2.Set(emps[0], "salary", value.Int(9999), 1000); err != nil {
				t.Fatal(err)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := e2.Crash(); err != nil {
				t.Fatal(err)
			}

			e3, err := Open(Options{Path: path, PoolPages: 32})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			if !e3.Recovered {
				t.Error("second reopen not flagged as recovered")
			}
			verifySalaries(t, e3, emps, updates)
			st, err := e3.StateAt(emps[0], 1001, atom.Now)
			if err != nil || st.Vals["salary"].AsInt() != 9999 {
				t.Errorf("post-checkpoint commit after second recovery: %v, %v", st, err)
			}
			// The recovered engine must accept new work and shut down clean.
			tx3, err := e3.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx3.Insert("Dept", map[string]value.V{
				"name": value.String_("fresh"), "budget": value.Int(1),
			}, 0); err != nil {
				t.Fatal(err)
			}
			if err := tx3.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := e3.Close(); err != nil {
				t.Fatal(err)
			}

			// A clean reopen after the dust settles sees everything.
			e4, err := Open(Options{Path: path, PoolPages: 32})
			if err != nil {
				t.Fatal(err)
			}
			defer e4.Close()
			if e4.Recovered {
				t.Error("clean shutdown flagged as recovered")
			}
			verifySalaries(t, e4, emps, updates)
		})
	}
}

// TestReopenAfterTornTailPage is the regression test for torn final pages:
// a crash can leave a partial page at the end of the data file, and
// OpenFileDevice must truncate it rather than refuse the database.
func TestReopenAfterTornTailPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.tdb")
	e, err := Open(Options{Path: path, Strategy: atom.StrategySeparated, SyncOnCommit: true, PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defineTestSchema(t, e)
	tx, _ := e.Begin()
	d, err := tx.Insert("Dept", map[string]value.V{
		"name": value.String_("kept"), "budget": value.Int(5),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	// Append a sub-page tail, as a torn final write would leave.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 700)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, err := Open(Options{Path: path, PoolPages: 32})
	if err != nil {
		t.Fatalf("reopen with torn tail page: %v", err)
	}
	defer e2.Close()
	st, err := e2.StateAt(d, 0, atom.Now)
	if err != nil || st.Vals["budget"].AsInt() != 5 {
		t.Errorf("data lost to torn tail: %v, %v", st, err)
	}
}

// legacyFrame encodes one log record as the version before page-exact redo
// wrote it: [len][crc32][lsn, txn, op, packed rid, data length, data].
func legacyFrame(dst []byte, lsn, txn uint64, op byte, rid storage.RID, data []byte) []byte {
	p := binary.LittleEndian.AppendUint64(nil, lsn)
	p = binary.LittleEndian.AppendUint64(p, txn)
	p = append(p, op)
	p = binary.LittleEndian.AppendUint64(p, rid.Pack())
	p = binary.LittleEndian.AppendUint32(p, uint32(len(data)))
	p = append(p, data...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(p))
	return append(dst, p...)
}

// TestLegacyLogRefused is the upgrade rule: a store the previous version
// left dirty, its log holding heap records in the old format (op codes 1-3,
// no placement), is refused with the typed error naming the remedy — and
// the refusal touches neither the log nor the data.
func TestLegacyLogRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e := openLeader(t, path)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	old := legacyFrame(nil, 1000, 1, 2, storage.RID{Page: 1, Slot: 0}, []byte("old catalog"))
	old = legacyFrame(old, 1001, 1, 4, storage.NilRID, nil)
	if err := os.WriteFile(path+".wal", old, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: path}); !errors.Is(err, wal.ErrLegacyLog) {
		t.Fatalf("open of a dirty store with an old-format log = %v, want ErrLegacyLog", err)
	}
	if got, _ := os.ReadFile(path + ".wal"); !bytes.Equal(got, old) {
		t.Error("refused open changed the log")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Error("refused open changed the data file")
	}
}
