package query

import (
	"context"
	"strings"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/storage"
	"tcodm/internal/value"
)

// The read path views stored records inside pinned buffer-pool frames. Two
// things can go wrong with that, and these tests pin both down: a pin that
// outlives its read (a frame that can never be evicted again), and a value
// that still points into a frame after the pin is gone (a row that changes
// when the frame is recycled).

var allStrategies = []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple}

// explainCorpus is every EXPLAIN statement of the plan goldens: with the
// differential corpus, the statements the read-set guard replays.
var explainCorpus = []string{
	`EXPLAIN ANALYZE SELECT (name, salary) FROM Emp WHERE salary > 2500 AT 100`,
	`EXPLAIN ANALYZE SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 100`,
	`EXPLAIN ANALYZE SELECT HISTORY(Emp.salary) FROM Emp WHERE name = "ada" DURING [0, 100)`,
	`EXPLAIN SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [10, 20)`,
	`EXPLAIN ANALYZE SELECT (name, salary) FROM Emp ORDER BY salary DESC LIMIT 2 AT 100`,
	`EXPLAIN SELECT ALL FROM DeptStaff`,
	`EXPLAIN ANALYZE SELECT (Emp.name) FROM Emp WHERE Emp.salary > 4000`,
}

// pooledFixture builds the small (n == 0) or scaled fixture under strat on a
// pool of poolPages frames.
func pooledFixture(t *testing.T, strat atom.Strategy, poolPages, n int) (*Engine, *storage.BufferPool) {
	t.Helper()
	e, pool, _ := pooledFixtureOn(t, storage.NewMemDevice(), strat, poolPages, n)
	return e, pool
}

func pooledFixtureOn(t *testing.T, dev storage.Device, strat atom.Strategy, poolPages, n int) (*Engine, *storage.BufferPool, atom.Options) {
	t.Helper()
	m, pool, err := newTestManager(dev, strat, poolPages, true)
	if err != nil {
		t.Fatal(err)
	}
	var e *Engine
	if n == 0 {
		e, _, _, err = fillFixture(m)
	} else {
		e, err = fillScaledFixture(m, n)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e, pool, atom.Options{Strategy: strat, TimeIndex: true}
}

// samePagesTinyPool flushes a built fixture to its device and opens a
// second engine over the very same pages behind a pool of 8 frames. (Two
// independently loaded stores would not do: record placement follows Go map
// order, so their forwarding hops, and with them the page charges, differ.)
func samePagesTinyPool(t *testing.T, dev storage.Device, built *Engine, builtPool *storage.BufferPool, opts atom.Options) (*Engine, *storage.BufferPool) {
	t.Helper()
	if err := builtPool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(dev, 8)
	m, err := atom.OpenManager(storage.NewHeap(pool, nil), pool, built.Mgr.Schema(), opts, built.Mgr.Roots())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(m), pool
}

func requireNoPins(t *testing.T, pool *storage.BufferPool, after string) {
	t.Helper()
	if n := pool.Stats().Pinned; n != 0 {
		t.Errorf("%d frames still pinned after %s", n, after)
	}
}

// TestCorpusOnTinyPoolMatchesLargePool runs the differential corpus on a
// pool of 8 frames — every candidate's frame is recycled before the next
// few candidates are done — and requires signatures (rows, order, plan,
// resource totals) byte-identical to a run where nothing is ever evicted.
// A value still aliasing a frame shows up as a wrong row. After every
// statement no frame may remain pinned, and no statement may reach outside
// its read set.
func TestCorpusOnTinyPoolMatchesLargePool(t *testing.T) {
	for _, strat := range allStrategies {
		for _, n := range []int{0, 300} {
			name := strat.String() + "/small"
			if n > 0 {
				name = strat.String() + "/scaled"
			}
			t.Run(name, func(t *testing.T) {
				dev := storage.NewMemDevice()
				large, largePool, opts := pooledFixtureOn(t, dev, strat, 8192, n)
				tiny, tinyPool := samePagesTinyPool(t, dev, large, largePool, opts)
				statements := append(append([]string{}, differentialCorpus...), explainCorpus...)
				for _, workers := range []int{1, 2, 8} {
					large.Workers, tiny.Workers = workers, workers
					for _, src := range statements {
						want := signature(large.Run(src, 10))
						got := signature(tiny.Run(src, 10))
						requireNoPins(t, largePool, src)
						requireNoPins(t, tinyPool, src)
						if strings.Contains(want, "outside the statement's read set") {
							t.Errorf("workers=%d %q reached outside its read set:\n%s", workers, src, want)
						}
						if strings.HasPrefix(src, "EXPLAIN") {
							if workers > 1 {
								continue // which worker claimed which chunk is not deterministic
							}
							// Plans carry wall times; compare rows and totals.
							want, got = timingRe.ReplaceAllString(want, "]"), timingRe.ReplaceAllString(got, "]")
						}
						if got != want {
							t.Errorf("workers=%d 8-frame pool diverges on %q:\n--- 8192 frames ---\n%s\n--- 8 frames ---\n%s",
								workers, src, want, got)
						}
					}
				}
				if ev := tinyPool.Stats().Evictions; ev == 0 && n > 0 {
					t.Error("the 8-frame pool never evicted: frames were not recycled")
				}
			})
		}
	}
}

// TestNoPinsAfterCancelledScan cancels scans before and during execution,
// serial and parallel, and requires every frame released.
func TestNoPinsAfterCancelledScan(t *testing.T) {
	for _, strat := range allStrategies {
		t.Run(strat.String(), func(t *testing.T) {
			e, pool := pooledFixture(t, strat, 64, 300)
			for _, workers := range []int{1, 4} {
				e.Workers, e.chunk = workers, 1
				for _, src := range []string{
					`SELECT (name, salary) FROM Emp WHERE salary > 1500 AT 10`,
					`SELECT (name, TAVG(salary)) FROM Emp DURING [0, 100) AT 60`,
					`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 10`,
				} {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, err := e.RunCtx(ctx, src, Defaults{VT: 10}); err != context.Canceled {
						t.Errorf("workers=%d pre-cancelled %q: err = %v", workers, src, err)
					}
					requireNoPins(t, pool, "a pre-cancelled "+src)

					ctx, cancel = context.WithCancel(context.Background())
					done := make(chan error, 1)
					go func() {
						_, err := e.RunCtx(ctx, src, Defaults{VT: 10})
						done <- err
					}()
					cancel()
					if err := <-done; err != nil && err != context.Canceled {
						t.Errorf("workers=%d cancelled %q: err = %v", workers, src, err)
					}
					requireNoPins(t, pool, "a cancelled "+src)
				}
			}
		})
	}
}

// TestAttributeOutsideReadSetIsAnError constructs the failure on purpose:
// analysis that forgets an attribute the statement evaluates must surface
// as an internal error from the first candidate, never as a NULL.
func TestAttributeOutsideReadSetIsAnError(t *testing.T) {
	e, _, _ := fixture(t, false)
	cases := []struct {
		src   string
		strip func(*atom.ReadSet)
	}{
		{`SELECT (name) FROM Emp WHERE salary > 1000 AT 10`, func(rs *atom.ReadSet) { rs.Attrs = []string{"name"} }},
		{`SELECT (name, salary) FROM Emp AT 10`, func(rs *atom.ReadSet) { rs.Attrs = []string{"name"} }},
		{`SELECT (TAVG(salary)) FROM Emp AT 10`, func(rs *atom.ReadSet) { rs.Histories = nil }},
		{`SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [0, 20)`, func(rs *atom.ReadSet) { rs.Histories = nil }},
		{`SELECT HISTORY(salary) FROM Emp`, func(rs *atom.ReadSet) { rs.Histories = nil }},
		{`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 10`, func(rs *atom.ReadSet) { rs.Attrs = nil }},
	}
	for _, c := range cases {
		a, err := Analyze(mustParse(t, c.src), e.Mgr.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Execute(a, 10); err != nil {
			t.Fatalf("%q with its own read set: %v", c.src, err)
		}
		c.strip(a.Reads)
		_, err = e.Execute(a, 10)
		if err == nil || !strings.Contains(err.Error(), "outside the statement's read set") {
			t.Errorf("%q with a stripped read set: err = %v, want the read-set internal error", c.src, err)
		}
	}
}

// TestReadSetNamesOnlyWhatTheStatementNeeds pins the projection itself.
func TestReadSetNamesOnlyWhatTheStatementNeeds(t *testing.T) {
	e, _, _ := fixture(t, false)
	cases := []struct {
		src  string
		want atom.ReadSet
	}{
		{`SELECT (name, salary) FROM Emp WHERE salary > 4000 AT 15`,
			atom.ReadSet{State: true, Attrs: []string{"salary", "name"}}},
		{`SELECT (name, TAVG(salary), CHANGES(salary)) FROM Emp DURING [0, 330) AT 300`,
			atom.ReadSet{State: true, Attrs: []string{"name"}, Histories: []string{"salary"}}},
		{`SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [0, 100)`,
			atom.ReadSet{State: true, Attrs: []string{"name"}, Histories: []string{"salary"}}},
		{`SELECT (name) FROM Emp WHEN LIFESPAN PRECEDES PERIOD [100, 200)`,
			atom.ReadSet{State: true, Attrs: []string{"name"}, Lifespan: true}},
		{`SELECT HISTORY(salary) FROM Emp`,
			atom.ReadSet{Histories: []string{"salary"}}},
		{`SELECT HISTORY(salary) FROM Emp WHERE name = "ada"`,
			atom.ReadSet{State: true, Attrs: []string{"name"}, Histories: []string{"salary"}}},
		{`SELECT (Dept.name, Emp.name, COUNT(Emp)) FROM DeptStaff`,
			atom.ReadSet{State: true, Attrs: []string{"name"}}},
		{`SELECT ALL FROM DeptStaff`,
			atom.ReadSet{State: true}},
	}
	for _, c := range cases {
		a, err := Analyze(mustParse(t, c.src), e.Mgr.Schema())
		if err != nil {
			t.Fatal(err)
		}
		got := *a.Reads
		if got.State != c.want.State || got.AllAttrs || got.Lifespan != c.want.Lifespan ||
			strings.Join(got.Attrs, ",") != strings.Join(c.want.Attrs, ",") ||
			strings.Join(got.Histories, ",") != strings.Join(c.want.Histories, ",") {
			t.Errorf("%q reads %+v, want %+v", c.src, got, c.want)
		}
	}
}

// TestOneReadPerCandidate: a statement that slices, aggregates twice and
// filters by history reads each candidate's records once — under the
// embedded placement, one page per candidate in all.
func TestOneReadPerCandidate(t *testing.T) {
	e, _ := pooledFixture(t, atom.StrategyEmbedded, 256, 0)
	res, err := e.Run(`SELECT (name, TAVG(salary), CHANGES(salary)) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [0, 200) DURING [0, 100) AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Atoms != 5 || res.Res.Pages != 5 {
		t.Errorf("charged %v over 5 candidates, want 5 atoms on 5 pages", res.Res)
	}
	if len(res.Rows) != 5 {
		t.Errorf("%d rows, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].Kind() != value.KindFloat || row[2].Kind() != value.KindInt {
			t.Errorf("row %v: aggregates did not evaluate", row)
		}
	}
}
