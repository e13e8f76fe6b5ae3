package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/query"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// TestCachedPlanConcurrentBinds runs one template on eight goroutines,
// each binding its own parameters into the one cached plan, while a
// writer commits salary changes that begin after the queried instant.
// Every answer must equal the answer to the statement query.Bind splices.
// Under -race it also shows the shared template is only read.
func TestCachedPlanConcurrentBinds(t *testing.T) {
	e := openMem(t, atom.StrategySeparated)
	_, emps := seedParallelDB(t, e, 64)

	const tmpl = `SELECT (name, salary) FROM Emp WHERE salary >= $1 AND salary < $2 AND NOT name = $3 AT 5`
	answer := func(res *query.Result) string { return fmt.Sprint(res.Columns, res.Rows, res.Plan) }
	var params [][]value.V
	var want []string
	for i := 0; i < 16; i++ {
		p := []value.V{value.Int(int64(1000 + 3*i)), value.Float(float64(1020 + 2*i)), value.String_(fmt.Sprintf("e%d", 3*i))}
		bound, err := query.Bind(tmpl, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(bound)
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("%s: %v rows, %v", bound, res, err)
		}
		params, want = append(params, p), append(want, answer(res))
	}

	const readers = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// At least one pass: the writer may finish before a reader runs.
			for i := 0; i < len(params) || !stop.Load(); i++ {
				k := (r + i) % len(params)
				res, err := e.QueryWith(context.Background(), tmpl, QueryOptions{}, params[k]...)
				if err != nil {
					errs <- fmt.Errorf("reader %d, params %v: %w", r, params[k], err)
					return
				}
				if got := answer(res); got != want[k] {
					errs <- fmt.Errorf("reader %d, params %v:\n got  %s\n want %s", r, params[k], got, want[k])
					return
				}
			}
		}(r)
	}
	for i := 0; i < 25; i++ {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Set(emps[(i*7)%len(emps)], "salary", value.Int(int64(1010+i)), temporal.Instant(10*(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
