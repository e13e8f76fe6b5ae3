// Package experiments implements the reconstructed evaluation suite: one
// function per table/figure that builds its workload, runs the measurement,
// and returns a printable table. Suite registers them; cmd/tcobench prints
// the ones it is asked for. Systems numbers (commit throughput, recovery,
// wire and tracing overhead) are not taken here but by the repo benchmark
// in bench/ (BENCHMARK.json).
//
// Because the original paper's evaluation text is unavailable (see
// DESIGN.md), these experiments reconstruct the study a temporal
// complex-object engine paper of this era reports: storage and access
// trade-offs between history placements, time-slice costs by slice age,
// the price of temporal molecule materialization, and index support for
// temporal selection. Absolute numbers are machine-dependent; the claims
// under test are shapes (who wins, by what factor, where the crossovers
// are).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/schema"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper-shaped expectation under test
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range t.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Strategies lists the mappings every experiment compares.
var Strategies = []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple}

// measure runs f repeatedly until minDur has elapsed and returns the mean
// per-iteration duration.
func measure(minDur time.Duration, f func()) time.Duration {
	f() // warm up
	var n int
	start := time.Now()
	for time.Since(start) < minDur {
		f()
		n++
	}
	if n == 0 {
		n = 1
	}
	return time.Since(start) / time.Duration(n)
}

func dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func mib(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// BuildPersonnelDB loads a personnel workload into a fresh in-memory
// database under the given strategy, returning the db and the employee IDs.
func BuildPersonnelDB(strat atom.Strategy, p workload.PersonnelParams, timeIndex bool) (*core.Engine, []value.ID, error) {
	db, err := core.Open(core.Options{Strategy: strat, TimeIndex: timeIndex, PoolPages: 4096})
	if err != nil {
		return nil, nil, err
	}
	if err := installSchema(db, workload.PersonnelSchema); err != nil {
		db.Close()
		return nil, nil, err
	}
	app := workload.NewEngineApplier(db, 256)
	ids, err := workload.Apply(workload.Personnel(p), app)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := app.Flush(); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, ids[p.Depts:], nil
}

// BuildCADDB loads a CAD workload, returning the db and the assembly IDs.
func BuildCADDB(strat atom.Strategy, p workload.CADParams) (*core.Engine, []value.ID, error) {
	db, err := core.Open(core.Options{Strategy: strat, PoolPages: 4096})
	if err != nil {
		return nil, nil, err
	}
	if err := installSchema(db, workload.CADSchema); err != nil {
		db.Close()
		return nil, nil, err
	}
	app := workload.NewEngineApplier(db, 256)
	ids, err := workload.Apply(workload.CAD(p), app)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := app.Flush(); err != nil {
		db.Close()
		return nil, nil, err
	}
	var assemblies []value.ID
	for _, id := range ids {
		st, err := db.StateAt(id, 0, atom.Now)
		if err == nil && st.Type == "Assembly" {
			assemblies = append(assemblies, id)
		}
	}
	return db, assemblies, nil
}

func installSchema(db *core.Engine, build func() (*schema.Schema, error)) error {
	sch, err := build()
	if err != nil {
		return err
	}
	return workload.Install(db, sch)
}

// scanCurrentSalaries time-slices every employee at vt and folds salaries.
func scanCurrentSalaries(db *core.Engine, emps []value.ID, vt, tt temporal.Instant) (int64, error) {
	var sum int64
	for _, id := range emps {
		st, err := db.StateAt(id, vt, tt)
		if err != nil {
			return 0, err
		}
		if v, ok := st.Vals["salary"]; ok && !v.IsNull() {
			sum += v.AsInt()
		}
	}
	return sum, nil
}
