package query

import (
	"strings"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := buildTestSchema()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildTestSchema is the t-free form of testSchema (fuzz targets build the
// fixture outside a *testing.T).
func buildTestSchema() (*schema.Schema, error) {
	s := schema.New()
	if err := s.AddAtomType(schema.AtomType{
		Name: "Dept",
		Attrs: []schema.Attribute{
			{Name: "name", Kind: value.KindString, Required: true},
		},
	}); err != nil {
		return nil, err
	}
	if err := s.AddAtomType(schema.AtomType{
		Name: "Emp",
		Attrs: []schema.Attribute{
			{Name: "name", Kind: value.KindString, Required: true},
			{Name: "salary", Kind: value.KindInt, Temporal: true},
			{Name: "dept", Kind: value.KindID, Target: "Dept", Card: schema.One, Temporal: true},
		},
	}); err != nil {
		return nil, err
	}
	if err := s.AddMoleculeType(schema.MoleculeType{
		Name:  "DeptStaff",
		Root:  "Dept",
		Edges: []schema.MoleculeEdge{{From: "Dept", Attr: "dept", To: "Emp", Reverse: true}},
	}); err != nil {
		return nil, err
	}
	s.Freeze()
	return s, nil
}

// fixture builds a small personnel database and returns the engine plus
// the dept/emp ids.
func fixture(t *testing.T, timeIndex bool) (*Engine, []value.ID, []value.ID) {
	t.Helper()
	e, depts, emps, err := buildFixture(timeIndex)
	if err != nil {
		t.Fatal(err)
	}
	return e, depts, emps
}

// buildFixture is the t-free form of fixture.
func buildFixture(timeIndex bool) (*Engine, []value.ID, []value.ID, error) {
	m, _, err := newTestManager(storage.NewMemDevice(), atom.StrategySeparated, 256, timeIndex)
	if err != nil {
		return nil, nil, nil, err
	}
	return fillFixture(m)
}

// newTestManager makes an empty manager over the test schema on dev behind
// a pool of poolPages frames.
func newTestManager(dev storage.Device, strat atom.Strategy, poolPages int, timeIndex bool) (*atom.Manager, *storage.BufferPool, error) {
	pool := storage.NewBufferPool(dev, poolPages)
	if err := storage.InitMeta(pool); err != nil {
		return nil, nil, err
	}
	heap := storage.NewHeap(pool, nil)
	sch, err := buildTestSchema()
	if err != nil {
		return nil, nil, err
	}
	m, err := atom.NewManager(heap, pool, sch, atom.Options{Strategy: strat, TimeIndex: timeIndex})
	return m, pool, err
}

// fillFixture loads the small personnel database into m.
func fillFixture(m *atom.Manager) (*Engine, []value.ID, []value.ID, error) {
	var depts, emps []value.ID
	for _, n := range []string{"kernel", "tools"} {
		d, err := m.Insert("Dept", map[string]value.V{"name": value.String_(n)}, 0, 1)
		if err != nil {
			return nil, nil, nil, err
		}
		depts = append(depts, d)
	}
	// Employees: salaries 1000, 2000, ..., alternating departments.
	names := []string{"ada", "bob", "cay", "dan", "eve"}
	for i, n := range names {
		e, err := m.Insert("Emp", map[string]value.V{
			"name":   value.String_(n),
			"salary": value.Int(int64(1000 * (i + 1))),
			"dept":   value.Ref(depts[i%2]),
		}, 0, 2)
		if err != nil {
			return nil, nil, nil, err
		}
		emps = append(emps, e)
	}
	// ada gets a raise at t=50; eve leaves at t=80.
	if err := m.UpdateAttr(emps[0], "salary", value.Int(9000), temporal.Open(50), 3); err != nil {
		return nil, nil, nil, err
	}
	if err := m.Delete(emps[4], 80, 4); err != nil {
		return nil, nil, nil, err
	}
	return NewEngine(m), depts, emps, nil
}

func TestParseRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT ALL FROM DeptStaff`,
		`SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary > 4000`,
		`SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [10, 20) AT 15`,
		`SELECT HISTORY(Emp.salary) FROM Emp DURING [0, 100) ASOF 3`,
		`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 100`,
		`SELECT (name) FROM Emp WHERE (salary > 100 AND salary < 200) OR NOT name = "x"`,
		`SELECT (name) FROM Emp WHEN LIFESPAN CONTAINS PERIOD [5, 6)`,
	}
	for _, src := range queries {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Round trip: the normalized text must parse to the same shape.
		if _, err := Parse(q.String()); err != nil {
			t.Errorf("re-Parse(%q -> %q): %v", src, q.String(), err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ALL`,
		`SELECT ALL FROM`,
		`SELECT (a FROM T`,
		`SELECT (a) FROM T WHERE`,
		`SELECT (a) FROM T AT x`,
		`SELECT (a) FROM T WHEN VALID(a) SOMETIME PERIOD [0, 1)`,
		`SELECT (a) FROM T WHEN VALID(a) OVERLAPS PERIOD [5, 1)`,
		`SELECT (a) FROM T extra`,
		`SELECT (a) FROM T WHERE a = "unterminated`,
		`SELECT (a) FROM T AT 5 AT 6`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	sch := testSchema(t)
	bad := map[string]string{
		`SELECT (x) FROM Nowhere`:                                       "unknown type",
		`SELECT (bogus) FROM Emp`:                                       "no attribute",
		`SELECT (Dept.name) FROM Emp`:                                   "does not belong",
		`SELECT ALL FROM Emp`:                                           "SELECT ALL requires a molecule",
		`SELECT HISTORY(salary) FROM DeptStaff`:                         "require an atom type",
		`SELECT (name) FROM Emp DURING [0, 1)`:                          "DURING is only valid",
		`SELECT (Dept.name, COUNT(Proj)) FROM DeptStaff`:                "no constituent type",
		`SELECT (name, COUNT(Emp)) FROM Emp`:                            "requires a molecule",
		`SELECT (name) FROM Emp WHEN VALID(zzz) OVERLAPS PERIOD [0, 1)`: "no attribute",
	}
	for src, frag := range bad {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		_, err = Analyze(q, sch)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("Analyze(%q) err = %v, want containing %q", src, err, frag)
		}
	}
}

func TestSelectProjection(t *testing.T) {
	e, _, _ := fixture(t, false)
	res, err := e.Run(`SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary >= 3000 AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // cay 3000, dan 4000, eve 5000
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].AsInt() < 3000 {
			t.Errorf("row %v violates predicate", row)
		}
	}
}

func TestTimeSliceSemantics(t *testing.T) {
	e, _, _ := fixture(t, false)
	// At t=10 ada earns 1000; at t=60 she earns 9000.
	res, err := e.Run(`SELECT (salary) FROM Emp WHERE name = "ada" AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1000 {
		t.Fatalf("ada at 10 = %v", res.Rows)
	}
	res, _ = e.Run(`SELECT (salary) FROM Emp WHERE name = "ada" AT 60`, 10)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 9000 {
		t.Fatalf("ada at 60 = %v", res.Rows)
	}
	// eve was deleted at 80: present at 70, absent at 90.
	res, _ = e.Run(`SELECT (name) FROM Emp WHERE name = "eve" AT 70`, 10)
	if len(res.Rows) != 1 {
		t.Fatalf("eve at 70 = %v", res.Rows)
	}
	res, _ = e.Run(`SELECT (name) FROM Emp WHERE name = "eve" AT 90`, 10)
	if len(res.Rows) != 0 {
		t.Fatalf("eve at 90 = %v", res.Rows)
	}
}

func TestTransactionTimeAsOf(t *testing.T) {
	e, _, _ := fixture(t, false)
	// As recorded at tt=2 (before ada's raise at tt=3), her salary at
	// vt=60 was still 1000.
	res, err := e.Run(`SELECT (salary) FROM Emp WHERE name = "ada" AT 60 ASOF 2`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1000 {
		t.Fatalf("ada at 60 asof 2 = %v", res.Rows)
	}
}

func TestWhenSelection(t *testing.T) {
	e, _, _ := fixture(t, false)
	// Who had a salary version overlapping [0, 20)? Everyone (initial
	// versions start at 0).
	res, err := e.Run(`SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [0, 20)`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("overlap rows = %d", len(res.Rows))
	}
	// Whose salary version lies DURING [40, 200)? Only ada's raise
	// version [50, forever) is open-ended, so nobody qualifies...
	res, _ = e.Run(`SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [40, 200)`, 10)
	if len(res.Rows) != 0 {
		t.Fatalf("during rows = %v", res.Rows)
	}
	// ...but ada's closed version [0, 50) lies during [0, 60).
	res, _ = e.Run(`SELECT (name) FROM Emp WHEN VALID(salary) DURING PERIOD [0, 60)`, 10)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "ada" {
		t.Fatalf("during rows = %v", res.Rows)
	}
	// Lifespan-based WHEN: eve's lifespan [0, 80) precedes [100, 200).
	res, _ = e.Run(`SELECT (name) FROM Emp WHEN LIFESPAN PRECEDES PERIOD [100, 200)`, 10)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "eve" {
		t.Fatalf("lifespan rows = %v", res.Rows)
	}
}

func TestWhenUsesTimeIndex(t *testing.T) {
	e, _, _ := fixture(t, true)
	res, err := e.Run(`SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [0, 20)`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "time-index scan") {
		t.Errorf("plan = %q, want time-index scan", res.Plan)
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	// Without the index the plan is a full scan.
	e2, _, _ := fixture(t, false)
	res2, _ := e2.Run(`SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [0, 20)`, 10)
	if !strings.Contains(res2.Plan, "full type scan") {
		t.Errorf("plan without index = %q", res2.Plan)
	}
}

func TestHistoryQuery(t *testing.T) {
	e, _, _ := fixture(t, false)
	res, err := e.Run(`SELECT HISTORY(salary) FROM Emp WHERE name = "ada" DURING [0, 100) AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("history rows = %v", res.Rows)
	}
	// Rows: (id, 1000, 0, 50), (id, 9000, 50, 100-clipped).
	if res.Rows[0][1].AsInt() != 1000 || res.Rows[0][3].AsInstant() != 50 {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Rows[1][1].AsInt() != 9000 || res.Rows[1][2].AsInstant() != 50 {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
	if res.Rows[1][3].AsInstant() != 100 {
		t.Errorf("open end not clipped to window: %v", res.Rows[1])
	}
}

func TestMoleculeQueries(t *testing.T) {
	e, depts, _ := fixture(t, false)
	res, err := e.Run(`SELECT ALL FROM DeptStaff AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Molecules) != 2 {
		t.Fatalf("molecules = %d", len(res.Molecules))
	}
	// kernel dept (depts[0]) employs ada, cay, eve at t=10.
	var kernel *int
	for i, mol := range res.Molecules {
		if mol.Root == depts[0] {
			kernel = &i
			if mol.Size() != 4 { // dept + 3 emps
				t.Errorf("kernel molecule size = %d", mol.Size())
			}
		}
	}
	if kernel == nil {
		t.Fatal("kernel molecule missing")
	}
	// Projection with COUNT.
	res, err = e.Run(`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, row := range res.Rows {
		counts[row[0].AsString()] = row[1].AsInt()
	}
	if counts["kernel"] != 3 || counts["tools"] != 2 {
		t.Errorf("counts = %v", counts)
	}
	// After eve leaves (t=90), kernel employs 2.
	res, _ = e.Run(`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 90`, 10)
	counts = map[string]int64{}
	for _, row := range res.Rows {
		counts[row[0].AsString()] = row[1].AsInt()
	}
	if counts["kernel"] != 2 {
		t.Errorf("kernel count at 90 = %d", counts["kernel"])
	}
}

func TestWhereNullSemantics(t *testing.T) {
	e, _, _ := fixture(t, false)
	// dept is never null here; salary = NULL matches nothing.
	res, err := e.Run(`SELECT (name) FROM Emp WHERE salary = NULL AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("salary = NULL rows = %v", res.Rows)
	}
	res, _ = e.Run(`SELECT (name) FROM Emp WHERE salary != NULL AT 10`, 10)
	if len(res.Rows) != 5 {
		t.Errorf("salary != NULL rows = %d", len(res.Rows))
	}
	// Ordered comparison with NULL is never true.
	res, _ = e.Run(`SELECT (name) FROM Emp WHERE salary > NULL AT 10`, 10)
	if len(res.Rows) != 0 {
		t.Errorf("salary > NULL rows = %v", res.Rows)
	}
}

func TestResultTable(t *testing.T) {
	e, _, _ := fixture(t, false)
	res, err := e.Run(`SELECT (name, salary) FROM Emp WHERE name = "bob" AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "name") || !strings.Contains(tbl, `"bob"`) || !strings.Contains(tbl, "2000") {
		t.Errorf("table rendering:\n%s", tbl)
	}
	// Molecule result rendering.
	res, _ = e.Run(`SELECT ALL FROM DeptStaff AT 10`, 10)
	if !strings.Contains(res.Table(), "molecule") {
		t.Errorf("molecule table rendering: %q", res.Table())
	}
}

func TestTemporalPredHolds(t *testing.T) {
	period := temporal.NewInterval(10, 20)
	cases := []struct {
		pred TemporalPred
		iv   temporal.Interval
		want bool
	}{
		{PredOverlaps, temporal.NewInterval(15, 25), true},
		{PredOverlaps, temporal.NewInterval(20, 30), false},
		{PredContains, temporal.NewInterval(5, 25), true},
		{PredContains, temporal.NewInterval(12, 18), false},
		{PredDuring, temporal.NewInterval(12, 18), true},
		{PredDuring, temporal.NewInterval(5, 25), false},
		{PredPrecedes, temporal.NewInterval(0, 10), true},
		{PredPrecedes, temporal.NewInterval(0, 11), false},
		{PredMeets, temporal.NewInterval(0, 10), true},
		{PredMeets, temporal.NewInterval(0, 9), false},
		{PredEquals, temporal.NewInterval(10, 20), true},
		{PredEquals, temporal.NewInterval(10, 21), false},
	}
	for _, c := range cases {
		if got := c.pred.Holds(c.iv, period); got != c.want {
			t.Errorf("%v.Holds(%v, %v) = %v, want %v", c.pred, c.iv, period, got, c.want)
		}
	}
}
