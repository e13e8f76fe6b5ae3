package core

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/value"
)

// workload runs a small insert/update/query mix so every instrumented
// layer sees traffic.
func workload(t *testing.T, e *Engine) {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	d, err := tx.Insert("Dept", map[string]value.V{"name": value.String_("obs"), "budget": value.Int(7)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tx.Insert("Emp", map[string]value.V{
			"name": value.String_("e"), "salary": value.Int(int64(1000 * (i + 1))), "dept": value.Ref(d),
		}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`SELECT (name, salary) FROM Emp WHERE salary > 2000 AT 10`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`SELECT ALL FROM DeptStaff AT 10`); err != nil {
		t.Fatal(err)
	}
}

// TestEngineMetricsWiring verifies that an ordinary workload drives the
// per-layer counters the acceptance criteria name: pool traffic, atom
// version-chain activity, transaction commits, and query runs.
func TestEngineMetricsWiring(t *testing.T) {
	e := openMem(t, atom.StrategySeparated)
	workload(t, e)

	counters := e.CounterSnapshot()
	for _, name := range []string{"pool.hits", "heap.fetches", "atom.fast_loads", "txn.commits", "query.runs"} {
		if counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0 (all: %v)", name, counters)
		}
	}
	if e.Metrics().Histogram("query.ns").Count() == 0 {
		t.Error("query.ns histogram recorded nothing")
	}
}

// TestEngineWALMetrics checks the durable path: commits must show up as
// WAL appends and fsyncs.
func TestEngineWALMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.tdb")
	e, err := Open(Options{Path: path, SyncOnCommit: true, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defineTestSchema(t, e)
	workload(t, e)

	counters := e.CounterSnapshot()
	if counters["wal.appends"] == 0 || counters["wal.fsyncs"] == 0 {
		t.Errorf("wal.appends=%d wal.fsyncs=%d, want both > 0",
			counters["wal.appends"], counters["wal.fsyncs"])
	}
}

// TestSlowQueryLog sets a zero-distance threshold so every query is slow,
// then checks the log captured text and row counts.
func TestSlowQueryLog(t *testing.T) {
	e, err := Open(Options{Strategy: atom.StrategySeparated, SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defineTestSchema(t, e)
	workload(t, e)

	if e.SlowLog().Total() == 0 {
		t.Fatal("slow log captured nothing at 1ns threshold")
	}
	entries := e.SlowLog().Entries()
	found := false
	for _, en := range entries {
		if strings.Contains(en.Query, "FROM Emp") {
			found = true
			if en.Dur <= 0 {
				t.Errorf("slow entry has non-positive duration: %+v", en)
			}
		}
	}
	if !found {
		t.Errorf("no slow entry for the Emp query: %+v", entries)
	}

	// Raising the threshold stops collection.
	before := e.SlowLog().Total()
	e.SlowLog().SetThreshold(time.Hour)
	if _, err := e.Query(`SELECT (name) FROM Emp AT 10`); err != nil {
		t.Fatal(err)
	}
	if e.SlowLog().Total() != before {
		t.Error("slow log grew past an hour-long threshold")
	}
}

// TestRecoveryStatsRecorded exercises the crash path and checks that the
// replay statistics — formerly computed and discarded — surface through
// RecoveryStats() and the recovery.* gauges.
func TestRecoveryStatsRecorded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.tdb")
	e, err := Open(Options{Path: path, Strategy: atom.StrategySeparated, SyncOnCommit: true, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defineTestSchema(t, e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ := e.Begin()
	if _, err := tx.Insert("Dept", map[string]value.V{"name": value.String_("x"), "budget": value.Int(1)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	crashed := filepath.Join(dir, "crashed.tdb")
	crashClone(t, path, crashed)
	_ = e.Close()

	e2, err := Open(Options{Path: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !e2.Recovered {
		t.Fatal("clone not flagged as recovered")
	}
	rs := e2.RecoveryStats()
	if rs.Records == 0 || rs.Committed == 0 {
		t.Errorf("recovery stats not captured: %+v", rs)
	}
	if g := e2.Metrics().Gauge("recovery.records").Value(); g != int64(rs.Records) {
		t.Errorf("recovery.records gauge = %d, want %d", g, rs.Records)
	}
	if e2.Metrics().Gauge("recovery.unclean_opens").Value() != 1 {
		t.Error("recovery.unclean_opens gauge not set")
	}

	// A clean reopen reports all-zero recovery stats.
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, err := Open(Options{Path: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if e3.Recovered {
		t.Error("clean reopen flagged as recovered")
	}
	if rs := e3.RecoveryStats(); rs.Records != 0 || rs.Replayed != 0 {
		t.Errorf("clean open carries recovery stats: %+v", rs)
	}
}
