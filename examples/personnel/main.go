// Command personnel loads the synthetic personnel workload and runs the
// query repertoire over it: time slices, temporal selections (WHEN),
// history retrieval, molecule queries, and temporal aggregates
// (duration-weighted averages) over attribute histories.
package main

import (
	"fmt"
	"log"

	"tcodm"
	"tcodm/internal/temporal"
	"tcodm/internal/workload"
)

func main() {
	db, err := tcodm.Open(tcodm.Options{Strategy: tcodm.StrategySeparated, TimeIndex: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Install the personnel schema and load a deterministic workload.
	sch, err := workload.PersonnelSchema()
	must(err)
	must(workload.Install(db, sch))
	params := workload.PersonnelParams{
		Depts: 4, Emps: 40, UpdatesPerEmp: 6, MovesPerEmp: 2, TimeStep: 10, Seed: 42,
	}
	app := workload.NewEngineApplier(db, 64)
	ids, err := workload.Apply(workload.Personnel(params), app)
	must(err)
	must(app.Flush())
	fmt.Printf("loaded %d atoms\n\n", len(ids))

	// 1. A current-state query (defaults to the engine clock's now; we
	// slice explicitly at the end of the history instead).
	res, err := db.Query(`SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary > 8500 AT 100`)
	must(err)
	fmt.Println("top earners at t=100:")
	fmt.Print(res.Table())

	// 2. A temporal selection: who had a salary version entirely inside
	// the probation window [0, 20)? (The time index drives this one.)
	res, err = db.Query(`SELECT (Emp.name) FROM Emp WHEN VALID(Emp.salary) DURING PERIOD [0, 20)`)
	must(err)
	fmt.Printf("\nemployees whose first salary ended within [0, 20): %d (plan: %s)\n",
		len(res.Rows), res.Plan)

	// 3. Departments and staffing over time, through the molecule type.
	for _, t := range []tcodm.Instant{5, 55, 105} {
		res, err = db.Query(fmt.Sprintf(`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT %d`, t))
		must(err)
		fmt.Printf("\nstaffing at t=%d:\n%s", t, res.Table())
	}

	// 4. Temporal analytics over one employee's salary history: its
	// duration-weighted average over an observation window (a TMQL temporal
	// aggregate), and the periods in which it exceeded a threshold.
	emp := ids[params.Depts] // the first employee
	res, err = db.Query(`SELECT (TAVG(salary)) FROM Emp WHERE name = "emp-0000" DURING [0, 80) AT 0`)
	must(err)
	if avg := res.Rows[0][0]; !avg.IsNull() {
		fmt.Printf("\nduration-weighted average salary of %v over [0, 80): %.1f\n", emp, avg.AsFloat())
	}
	versions, err := db.History(emp, "salary", tcodm.Now)
	must(err)
	var high []temporal.Interval
	for _, v := range versions {
		if !v.Val.IsNull() && v.Val.AsInt() > 5000 {
			high = append(high, v.Valid)
		}
	}
	fmt.Printf("periods with salary > 5000: %v\n", temporal.NewElement(high...))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
