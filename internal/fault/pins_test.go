package fault

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/workload"
)

// pinStatements is the scan cycle's shape: past and NOW time-slices, two
// aggregates over one history, a molecule, a WHEN filter.
var pinStatements = []string{
	`SELECT (name, salary) FROM Emp WHERE salary > 4000 AT 15`,
	`SELECT (name, salary) FROM Emp WHERE salary > 9000`,
	`SELECT (name, TAVG(salary), CHANGES(salary)) FROM Emp DURING [0, 90) AT 80`,
	`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 45`,
	`SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [0, 100)`,
}

// TestReaderErrorLeavesNoPins injects a device read error into the middle
// of a scan, at several depths and under every placement: the statement
// must fail with the injected error, every buffer-pool frame must be
// released — the reader views records inside pinned frames, and an error
// path that kept one pinned would shrink the pool for good — and the next
// run of the same statement must succeed (the error was transient).
func TestReaderErrorLeavesNoPins(t *testing.T) {
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pins.tdb")
			// Loading needs room for a transaction's dirty pages; the
			// statements then run on a pool far smaller than the store. They
			// run serially: with parallel workers on so small a pool the
			// order of device reads varies from run to run, and the k-th
			// read the probe counted might never happen.
			open := func(script Script) (*core.Engine, *Injector) {
				t.Helper()
				inj := NewInjector(script)
				e, err := core.Open(injectedOptions(path, strat, 16, inj))
				if err != nil {
					t.Fatal(err)
				}
				e.SetQueryWorkers(1)
				return e, inj
			}

			e, err := core.Open(injectedOptions(path, strat, 1024, NewInjector(Script{})))
			if err != nil {
				t.Fatal(err)
			}
			if err := installSchema(e); err != nil {
				t.Fatal(err)
			}
			app := workload.NewEngineApplier(e, 32)
			if _, err := workload.Apply(workload.Personnel(workload.PersonnelParams{
				Depts: 4, Emps: 120, UpdatesPerEmp: 8, MovesPerEmp: 2, TimeStep: 10, Seed: 7}), app); err != nil {
				t.Fatal(err)
			}
			if err := app.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			// Fault-free probe: which device reads belong to the statements.
			e, inj := open(Script{})
			first := inj.Report().Reads
			for _, src := range pinStatements {
				if _, err := e.QueryCtx(context.Background(), src); err != nil {
					t.Fatalf("probe %q: %v", src, err)
				}
			}
			last := inj.Report().Reads
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if last-first < 8 {
				t.Fatalf("the statements caused %d device reads; the pool is too large to exercise read errors", last-first)
			}

			t.Logf("device reads %d..%d belong to the statements", first+1, last)
			for _, k := range []int{first + 1, first + (last-first)/4, first + (last-first)/2, first + (last-first)*3/4} {
				e, inj := open(Script{ReadErrAt: k})
				failed := 0
				for _, src := range pinStatements {
					_, err := e.QueryCtx(context.Background(), src)
					if n := e.Pool().Stats().Pinned; n != 0 {
						t.Errorf("read error at %d: %d frames pinned after %q (err %v)", k, n, src, err)
					}
					if err == nil {
						continue
					}
					failed++
					if !errors.Is(err, ErrInjected) {
						t.Errorf("read error at %d: %q failed with %v, want the injected error", k, src, err)
					}
					if _, err := e.QueryCtx(context.Background(), src); err != nil {
						t.Errorf("read error at %d: %q still fails after the transient error: %v", k, src, err)
					}
				}
				if failed != 1 || inj.Report().ReadErrs != 1 {
					t.Errorf("read error at %d: %d statements failed, %d errors injected, want 1 and 1",
						k, failed, inj.Report().ReadErrs)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
