package query

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/obs"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// differentialCorpus is every execution query from the package's unit
// tests (query, aggregate, orderlimit, unnest, having) plus the analyze
// errors — the corpus the serial-vs-parallel differential harness replays
// at several worker counts. FuzzParallelEquivalence seeds from it too.
var differentialCorpus = []string{
	// query_test.go
	`SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary >= 3000 AT 10`,
	`SELECT (salary) FROM Emp WHERE name = "ada" AT 10`,
	`SELECT (salary) FROM Emp WHERE name = "ada" AT 60`,
	`SELECT (name) FROM Emp WHERE name = "eve" AT 70`,
	`SELECT (name) FROM Emp WHERE name = "eve" AT 90`,
	`SELECT (salary) FROM Emp WHERE name = "ada" AT 60 ASOF 2`,
	`SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [0, 20)`,
	`SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [40, 200)`,
	`SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [0, 60)`,
	`SELECT (name) FROM Emp WHEN LIFESPAN PRECEDES PERIOD [100, 200)`,
	`SELECT HISTORY(salary) FROM Emp WHERE name = "ada" DURING [0, 100) AT 10`,
	`SELECT HISTORY(Emp.salary) FROM Emp DURING [0, 100) ASOF 3`,
	`SELECT ALL FROM DeptStaff AT 10`,
	`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 10`,
	`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 90`,
	`SELECT (name) FROM Emp WHERE salary = NULL AT 10`,
	`SELECT (name) FROM Emp WHERE salary != NULL AT 10`,
	`SELECT (name) FROM Emp WHERE salary > NULL AT 10`,
	// aggregate_test.go
	`SELECT (name, TAVG(salary)) FROM Emp WHERE name = "ada" DURING [0, 100) AT 10`,
	`SELECT (TMIN(salary), TMAX(salary)) FROM Emp WHERE name = "ada" DURING [0, 100) AT 10`,
	`SELECT (CHANGES(salary)) FROM Emp WHERE name = "ada" DURING [0, 100) AT 10`,
	`SELECT (CHANGES(salary), TMAX(salary)) FROM Emp WHERE name = "ada" DURING [0, 40) AT 10`,
	`SELECT (TAVG(salary)) FROM Emp WHERE name = "ada" AT 10`,
	`SELECT (TAVG(salary)) FROM Emp WHERE name = "bob" DURING [-100, -50) AT 10`,
	// orderlimit_test.go
	`SELECT (name, salary) FROM Emp ORDER BY salary AT 10`,
	`SELECT (name, salary) FROM Emp ORDER BY salary DESC LIMIT 2 AT 10`,
	`SELECT (Emp.name) FROM Emp ORDER BY Emp.name AT 10`,
	`SELECT (name) FROM Emp LIMIT 3 AT 10`,
	`SELECT ALL FROM DeptStaff LIMIT 1 AT 10`,
	`SELECT HISTORY(salary) FROM Emp WHERE name = "ada" ORDER BY valid_from DESC DURING [0, 100) AT 10`,
	`SELECT (name) FROM Emp ORDER BY salary AT 10`,
	`SELECT ALL FROM DeptStaff ORDER BY name AT 10`,
	// unnest_test.go
	`SELECT (Dept.name, Emp.name, Emp.salary) FROM DeptStaff ORDER BY Emp.salary AT 10`,
	`SELECT (Dept.name, COUNT(Emp), Emp.name) FROM DeptStaff WHERE name = "kernel" AT 10`,
	`SELECT (Dept.name, Emp.name) FROM DeptStaff AT 90`,
	// having_test.go
	`SELECT (Dept.name) FROM DeptStaff HAVING Emp.salary > 4000 AT 10`,
	`SELECT (Dept.name) FROM DeptStaff HAVING Emp.salary > 4000 AT 90`,
	`SELECT (Dept.name) FROM DeptStaff HAVING Emp.salary > 4000 AND Emp.salary < 2000 AT 10`,
	`SELECT (Dept.name) FROM DeptStaff HAVING NOT Emp.salary > 4000 AT 10`,
	`SELECT ALL FROM DeptStaff HAVING Emp.salary > 4000 AT 10`,
	`SELECT (Dept.name) FROM DeptStaff WHERE name = "tools" HAVING Emp.salary > 3000 AT 10`,
}

// signature flattens everything observable about one execution — error,
// columns, row values in order, molecule identity in order, the plan
// string, and the exact resource totals (pages, WAL bytes, chain steps,
// atoms) — so two runs compare with a single string equality. Including
// the totals makes the corpus assert the accounting invariant: parallel
// execution must charge exactly what serial execution charges.
func signature(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("plan: " + res.Plan + "\n")
	sb.WriteString("resources: " + res.Res.String() + "\n")
	sb.WriteString("columns: " + strings.Join(res.Columns, "|") + "\n")
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	for _, m := range res.Molecules {
		fmt.Fprintf(&sb, "molecule %s root=%v atoms=%d\n", m.Type.Name, m.Root, m.Size())
	}
	return sb.String()
}

// buildScaledFixture grows the standard fixture shape to n employees over
// eight departments (names cycle ada/bob/cay/dan/eve so the corpus's
// literal predicates select many rows): every third employee gets a raise
// at vt=50, every seventh is deleted at vt=80. With the default 64-chunk
// partitioning, n >= several hundred gives every worker real work.
func buildScaledFixture(n int, timeIndex bool) (*Engine, error) {
	m, _, err := newTestManager(storage.NewMemDevice(), atom.StrategySeparated, 1024, timeIndex)
	if err != nil {
		return nil, err
	}
	return fillScaledFixture(m, n)
}

// fillScaledFixture loads the scaled personnel database into m.
func fillScaledFixture(m *atom.Manager, n int) (*Engine, error) {
	var depts []value.ID
	for i := 0; i < 8; i++ {
		d, err := m.Insert("Dept", map[string]value.V{"name": value.String_(fmt.Sprintf("dept%d", i))}, 0, 1)
		if err != nil {
			return nil, err
		}
		depts = append(depts, d)
	}
	names := []string{"ada", "bob", "cay", "dan", "eve"}
	for i := 0; i < n; i++ {
		id, err := m.Insert("Emp", map[string]value.V{
			"name":   value.String_(names[i%len(names)]),
			"salary": value.Int(int64(1000 + 100*(i%50))),
			"dept":   value.Ref(depts[i%len(depts)]),
		}, 0, 2)
		if err != nil {
			return nil, err
		}
		if i%3 == 0 {
			if err := m.UpdateAttr(id, "salary", value.Int(int64(9000+i)), temporal.Open(50), 3); err != nil {
				return nil, err
			}
		}
		if i%7 == 0 {
			if err := m.Delete(id, 80, 4); err != nil {
				return nil, err
			}
		}
	}
	return NewEngine(m), nil
}

// TestParallelDifferentialCorpus replays the corpus at workers 1, 2, and 8
// against the serial baseline and requires byte-identical signatures:
// result values, row order, molecule order, plan string, and error text.
// The small fixture runs with a chunk size of 2 so even five candidates
// split across several partitions; the scaled fixture uses the production
// chunk size.
func TestParallelDifferentialCorpus(t *testing.T) {
	small, _, _ := fixture(t, false)
	smallIdx, _, _ := fixture(t, true)
	big, err := buildScaledFixture(300, true)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name  string
		e     *Engine
		chunk int
	}{
		{"small", small, 2},
		{"small-timeindex", smallIdx, 2},
		{"scaled", big, 0},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			sawResources := false
			for _, src := range differentialCorpus {
				fx.e.Workers = 1
				fx.e.chunk = 0
				serialRes, serialErr := fx.e.Run(src, 10)
				want := signature(serialRes, serialErr)
				if serialErr == nil && !serialRes.Res.IsZero() {
					sawResources = true
				}
				for _, workers := range []int{1, 2, 8} {
					fx.e.Workers = workers
					fx.e.chunk = fx.chunk
					got := signature(fx.e.Run(src, 10))
					if got != want {
						t.Errorf("workers=%d diverges on %q:\n--- serial ---\n%s\n--- parallel ---\n%s", workers, src, want, got)
					}
				}
			}
			// Guard against the totals comparison passing vacuously: the
			// corpus must actually exercise the accounting paths.
			if !sawResources {
				t.Error("no query in the corpus reported nonzero resources; accounting is dead")
			}
		})
	}
}

// TestParallelMetrics checks the query.parallel_* family: a parallel run
// bumps runs/chunks/cands; a serial run does not.
func TestParallelMetrics(t *testing.T) {
	e, _, _ := fixture(t, false)
	reg := obs.New()
	e.SetMetrics(reg)
	e.Workers = 4
	e.chunk = 2
	if _, err := e.Run(`SELECT (name) FROM Emp AT 10`, 10); err != nil {
		t.Fatal(err)
	}
	c := reg.Counters()
	if c["query.parallel_runs"] != 1 {
		t.Errorf("parallel_runs = %d, want 1", c["query.parallel_runs"])
	}
	if c["query.parallel_chunks"] != 3 { // 5 candidates / chunk 2 -> 3 chunks
		t.Errorf("parallel_chunks = %d, want 3", c["query.parallel_chunks"])
	}
	if c["query.parallel_cands"] != 5 {
		t.Errorf("parallel_cands = %d, want 5", c["query.parallel_cands"])
	}
	e.Workers = 1
	if _, err := e.Run(`SELECT (name) FROM Emp AT 10`, 10); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counters()["query.parallel_runs"]; got != 1 {
		t.Errorf("serial run bumped parallel_runs to %d", got)
	}
}

// TestParallelCancellationReapsWorkers cancels a context mid-execution and
// asserts (a) the query surfaces the context error and (b) every worker
// goroutine is gone within the poll budget — runParallel joins its workers
// before returning, so the goroutine count must return to the baseline.
func TestParallelCancellationReapsWorkers(t *testing.T) {
	e, err := buildScaledFixture(300, false)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	e.chunk = 1
	baseline := runtime.NumGoroutine()

	// A pre-cancelled context: the small candidate count (under the serial
	// 64-tick poll) sails through collection, so the cancellation must be
	// caught by the workers' per-chunk poll.
	small, _, _ := fixture(t, false)
	small.Workers = 4
	small.chunk = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := small.RunCtx(ctx, `SELECT (name) FROM Emp AT 10`, Defaults{VT: 10}); err != context.Canceled {
		t.Errorf("pre-cancelled small scan err = %v, want context.Canceled", err)
	}

	// Cancel mid-scan on the large fixture (molecule query: workers also
	// poll per candidate before materialization).
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.RunCtx(ctx, `SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 10`, Defaults{VT: 10})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != nil && err != context.Canceled {
			t.Errorf("cancelled scan err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query did not return within 5s")
	}

	// All workers must be reaped: poll the goroutine count back to the
	// baseline (the runner goroutine above also exits).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines = %d, baseline %d: workers leaked", runtime.NumGoroutine(), baseline)
}

// TestParallelErrorPositionMatchesSerial forces a runtime execution error
// and checks the parallel path surfaces the same (first-in-stream-order)
// error the serial path does.
func TestParallelErrorPositionMatchesSerial(t *testing.T) {
	e, _, _ := fixture(t, false)
	src := `SELECT (name) FROM Emp WHERE bogus = 1 AT 10`
	e.Workers = 1
	_, serialErr := e.Run(src, 10)
	e.Workers = 4
	e.chunk = 1
	_, parallelErr := e.Run(src, 10)
	if fmt.Sprint(serialErr) != fmt.Sprint(parallelErr) {
		t.Errorf("error mismatch: serial=%v parallel=%v", serialErr, parallelErr)
	}
	if serialErr == nil {
		t.Skip("expected an error to compare")
	}
}

// TestParallelWorkerClamp: more workers than chunks must clamp (a fixture
// of five candidates in one 64-wide chunk runs on exactly one worker).
func TestParallelWorkerClamp(t *testing.T) {
	e, _, _ := fixture(t, false)
	e.Workers = 8
	ctx := &execCtx{}
	a, err := Analyze(mustParse(t, `SELECT (name) FROM Emp AT 10`), e.Mgr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.executeClass(a, 10, atom.Now, ctx); err != nil {
		t.Fatal(err)
	}
	if len(ctx.workers) != 1 || ctx.chunks != 1 {
		t.Errorf("workers=%d chunks=%d, want 1/1", len(ctx.workers), ctx.chunks)
	}
	if ctx.workers[0].cands != 5 {
		t.Errorf("worker cands = %d, want 5", ctx.workers[0].cands)
	}
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
