package experiments

import (
	"fmt"
	"runtime"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// RT9ParallelScan sweeps the per-query worker count over a scan-dominated
// temporal-aggregate query (the R-T1-style full-history scan: every
// candidate forces a complete salary-history read and streamfold). Each
// worker count re-runs the identical query on the identical database; the
// first row is the baseline for speedup and per-core efficiency. The sweep
// also cross-checks that every worker count returns the byte-identical
// result — a scaling number for a wrong answer would be worthless.
func RT9ParallelScan(scale Scale, cores []int) (*Table, error) {
	t := &Table{
		ID:      "R-T9",
		Title:   "Parallel query scaling: full-history aggregate scan vs. worker count",
		Claim:   "partitioned candidate processing scales a scan-dominated temporal aggregate with available cores; worker counts beyond GOMAXPROCS add no speedup",
		Columns: []string{"workers", "latency", "speedup", "efficiency"},
	}
	if len(cores) == 0 {
		cores = []int{1, 2, 4}
	}
	emps := 400 * int(scale)
	const updates = 16
	p := workload.PersonnelParams{Depts: 8, Emps: emps, UpdatesPerEmp: updates, MovesPerEmp: 2, TimeStep: 10, Seed: 7}
	db, _, err := BuildPersonnelDB(atom.StrategySeparated, p, false)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	horizon := int64(updates+1) * 10
	q := fmt.Sprintf(`SELECT (Emp.name, TAVG(Emp.salary), TMAX(Emp.salary), CHANGES(Emp.salary)) FROM Emp DURING [0, %d) AT %d`, horizon, horizon-5)

	var baseline time.Duration
	var baseRows [][]string
	for _, n := range cores {
		db.SetQueryWorkers(n)
		res, err := db.Query(q)
		if err != nil {
			return nil, fmt.Errorf("R-T9 workers=%d: %w", n, err)
		}
		rows := renderRows(res.Rows)
		if baseRows == nil {
			baseRows = rows
		} else if err := sameRows(baseRows, rows); err != nil {
			return nil, fmt.Errorf("R-T9 workers=%d diverged from workers=%d: %w", n, cores[0], err)
		}
		d := measure(80*time.Millisecond, func() {
			if _, err := db.Query(q); err != nil {
				panic(err)
			}
		})
		if baseline == 0 {
			baseline = d
		}
		sp := float64(baseline) / float64(d)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), dur(d), fmt.Sprintf("%.2fx", sp), fmt.Sprintf("%.0f%%", sp/float64(n)*100),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d employees × %d salary versions; aggregates read each candidate's full history", emps, updates),
		fmt.Sprintf("host GOMAXPROCS=%d; speedup relative to the first row (workers=%d); results verified identical across all worker counts", runtime.GOMAXPROCS(0), cores[0]),
	)
	return t, nil
}

// renderRows stringifies result rows for cross-worker-count comparison.
func renderRows(rows [][]value.V) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			out[i][j] = v.String()
		}
	}
	return out
}

// sameRows reports the first difference between two rendered result sets
// (row order included — parallel execution must preserve it).
func sameRows(want, got [][]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				return fmt.Errorf("row %d col %d = %q, want %q", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}
