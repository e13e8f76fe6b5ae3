package query

import (
	"fmt"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Micro-benchmarks of the scan cycle the repository benchmark's slice_scan
// workload runs — S1–S5 — on a 200-employee store with that workload's
// history shape (30 raises and 2 department moves per employee), one store
// per placement. A ten-second local signal before the 24-second bench run:
//
//	go test -run '^$' -bench ScanCycle -benchtime 20x ./internal/query

var cycleStatements = []struct{ label, text string }{
	{"S1", `SELECT (name, salary) FROM Emp WHERE salary > 4000 AT 15`},
	{"S2", `SELECT (name, salary) FROM Emp WHERE salary > 9000 AT 1000`},
	{"S3", `SELECT (name, TAVG(salary), CHANGES(salary)) FROM Emp DURING [0, 330) AT 300`},
	{"S4", `SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 45`},
	{"S5", `SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [0, 100) AT 1000`},
}

func buildCycleFixture(b *testing.B, strat atom.Strategy) *Engine {
	b.Helper()
	m, _, err := newTestManager(storage.NewMemDevice(), strat, 8192, false)
	if err != nil {
		b.Fatal(err)
	}
	const depts, emps = 8, 200
	var deptIDs, empIDs []value.ID
	for d := 0; d < depts; d++ {
		id, err := m.Insert("Dept", map[string]value.V{"name": value.String_(fmt.Sprintf("dept-%02d", d))}, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		deptIDs = append(deptIDs, id)
	}
	for e := 0; e < emps; e++ {
		id, err := m.Insert("Emp", map[string]value.V{
			"name":   value.String_(fmt.Sprintf("emp-%04d", e)),
			"salary": value.Int(int64(1000 + 37*e%4000)),
			"dept":   value.Ref(deptIDs[e%depts]),
		}, 0, 2)
		if err != nil {
			b.Fatal(err)
		}
		empIDs = append(empIDs, id)
	}
	tt := temporal.Instant(3)
	for round := 1; round <= 32; round++ {
		at := temporal.Open(temporal.Instant(10 * round))
		for e, id := range empIDs {
			if round%16 == 0 {
				err = m.UpdateAttr(id, "dept", value.Ref(deptIDs[(e+round)%depts]), at, tt)
			} else {
				err = m.UpdateAttr(id, "salary", value.Int(int64(1000+(131*e+977*round)%9000)), at, tt)
			}
			if err != nil {
				b.Fatal(err)
			}
			tt++
		}
	}
	return NewEngine(m)
}

func BenchmarkScanCycle(b *testing.B) {
	for _, strat := range allStrategies {
		e := buildCycleFixture(b, strat)
		for _, stmt := range cycleStatements {
			b.Run(strat.String()+"/"+stmt.label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := e.Run(stmt.text, 1000)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("no rows")
					}
				}
			})
		}
	}
}
