// Command personnel loads the synthetic personnel workload and runs the
// query repertoire over it: time slices, temporal selections (WHEN),
// history retrieval, molecule queries, and step-function analytics
// (duration-weighted averages) over attribute histories.
package main

import (
	"fmt"
	"log"

	"tcodm"
	"tcodm/internal/history"
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

	// 4. Step-function analytics: the duration-weighted average salary of
	// one employee over the whole observation window.
	emp := ids[params.Depts] // the first employee
	versions, err := db.History(emp, "salary", tcodm.Now)
	must(err)
	sf := history.FromVersions(versions)
	if avg, ok := sf.WeightedAvg(temporal.NewInterval(0, 80)); ok {
		fmt.Printf("\nduration-weighted average salary of %v over [0, 80): %.1f\n", emp, avg)
	}
	high := sf.When(func(v tcodm.V) bool { return !v.IsNull() && v.AsInt() > 5000 })
	fmt.Printf("periods with salary > 5000: %v\n", high)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
