package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/value"
)

// templateGen draws WHERE/HAVING templates over the test schema. Each
// comparison puts a $n slot (n in 1..3), an attribute or a literal on
// either side; slot numbers may skip, so some draws leave a parameter
// unreferenced.
type templateGen struct {
	r *rand.Rand
}

func (g *templateGen) slot() string { return fmt.Sprintf("$%d", 1+g.r.Intn(3)) }

// cmp is one comparison between a qualified-or-bare attribute of attrs and
// a slot (or, now and then, a literal or a bare slot as a boolean operand).
func (g *templateGen) cmp(attrs []string) string {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	attr, op := attrs[g.r.Intn(len(attrs))], ops[g.r.Intn(len(ops))]
	switch g.r.Intn(8) {
	case 0:
		return g.slot() // WHERE $1: the parameter itself is the predicate
	case 1:
		return attr + " " + op + ` "bob"`
	case 2, 3:
		return g.slot() + " " + op + " " + attr
	default:
		return attr + " " + op + " " + g.slot()
	}
}

func (g *templateGen) expr(attrs []string, depth int) string {
	if depth == 0 || g.r.Intn(3) == 0 {
		return g.cmp(attrs)
	}
	switch g.r.Intn(3) {
	case 0:
		return "NOT " + g.expr(attrs, depth-1)
	case 1:
		return "(" + g.expr(attrs, depth-1) + " OR " + g.expr(attrs, depth-1) + ")"
	default:
		return g.expr(attrs, depth-1) + " AND " + g.expr(attrs, depth-1)
	}
}

var (
	empAttrs      = []string{"name", "salary", "dept", "Emp.salary"}
	deptAttrs     = []string{"name", "Dept.name"}
	constituentAt = []string{"Emp.name", "Emp.salary", "Emp.dept", "Dept.name"}
)

func (g *templateGen) template() string {
	emp := g.expr(empAttrs, 2)
	switch g.r.Intn(7) {
	case 0:
		return "SELECT HISTORY(salary) FROM Emp WHERE " + emp + " DURING [0, 100)"
	case 1:
		return "SELECT (name, TAVG(salary), CHANGES(salary)) FROM Emp WHERE " + emp + " DURING [0, 100) AT 60"
	case 2:
		return "SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff WHERE " + g.expr(deptAttrs, 1) +
			" HAVING " + g.expr(constituentAt, 2) + " AT 10"
	case 3:
		return "SELECT ALL FROM DeptStaff HAVING " + g.expr(constituentAt, 2)
	case 4:
		return "SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [10, 60) WHERE " + emp
	case 5:
		return "SELECT (name, salary) FROM Emp WHERE " + emp + " ORDER BY salary DESC LIMIT 3 AT 90"
	default:
		return "SELECT (name, salary, dept) FROM Emp WHERE " + emp
	}
}

// params draws one value of every literal kind for each referenced slot,
// sometimes one too many or one too few.
func (g *templateGen) params(tmpl string, s string, i int64, f float64) []value.V {
	n := 0
	for k := 1; k <= 3; k++ {
		if strings.Contains(tmpl, fmt.Sprintf("$%d", k)) {
			n = k
		}
	}
	switch g.r.Intn(10) {
	case 0:
		n++
	case 1:
		if n > 0 {
			n--
		}
	}
	names := []string{"ada", "bob", "kernel", s}
	ps := make([]value.V, n)
	for k := range ps {
		switch g.r.Intn(9) {
		case 0:
			ps[k] = value.Null
		case 1:
			ps[k] = value.Bool(i%2 == 0)
		case 2:
			ps[k] = value.Int(i)
		case 3:
			ps[k] = value.Int(int64(1000 * g.r.Intn(6)))
		case 4:
			ps[k] = value.Instant(atom.Now / 2)
		case 5:
			ps[k] = value.Float(f)
		case 6:
			ps[k] = value.Float(float64(1000 * g.r.Intn(6))) // integral: stays a float
		default:
			ps[k] = value.String_(names[g.r.Intn(len(names))])
		}
	}
	return ps
}

// buildValueIndexFixture is the standard fixture with the value index on,
// so sargable slots choose index scans and the plan string names them.
func buildValueIndexFixture() (*Engine, error) {
	pool := storage.NewBufferPool(storage.NewMemDevice(), 256)
	if err := storage.InitMeta(pool); err != nil {
		return nil, err
	}
	sch, err := buildTestSchema()
	if err != nil {
		return nil, err
	}
	m, err := atom.NewManager(storage.NewHeap(pool, nil), pool, sch,
		atom.Options{Strategy: atom.StrategySeparated, ValueIndex: true})
	if err != nil {
		return nil, err
	}
	e, _, _, err := fillFixture(m)
	return e, err
}

// FuzzPlanBindMatchesTextual holds plan binding to its textual oracle:
// binding params into a cached template's slots must answer exactly what
// running Bind's spliced text answers — columns, rows, molecules, plan
// string, resources and EXPLAIN text — or both must fail. Templates and
// parameters are drawn from the seed; s, i and f feed the parameter
// values. The template a run binds into must read the same afterwards.
func FuzzPlanBindMatchesTextual(f *testing.F) {
	for seed := uint64(1); seed <= 256; seed++ {
		f.Add(seed, "ada", int64(2000), 2.5)
	}
	f.Add(uint64(99), `a "quoted" \ name`+"\n\t$1", int64(-7), -0.0)
	f.Add(uint64(100), "", int64(math.MinInt64), math.NaN())
	f.Add(uint64(101), "bob", int64(3000), math.Inf(-1))
	f.Add(uint64(102), "\x00\xff", int64(4000), 1e-300)

	var engines []*Engine
	for _, build := range []func() (*Engine, error){
		func() (*Engine, error) { e, _, _, err := buildFixture(false); return e, err },
		func() (*Engine, error) { e, _, _, err := buildFixture(true); return e, err },
		buildValueIndexFixture,
	} {
		e, err := build()
		if err != nil {
			f.Fatal(err)
		}
		engines = append(engines, e)
	}
	ctx := context.Background()
	def := Defaults{VT: 10}
	f.Fuzz(func(t *testing.T, seed uint64, s string, i int64, fl float64) {
		g := &templateGen{r: rand.New(rand.NewSource(int64(seed)))}
		tmpl := g.template()
		params := g.params(tmpl, s, i, fl)
		bound, bindErr := Bind(tmpl, params)
		for ei, e := range engines {
			for _, prefix := range []string{"", "EXPLAIN "} {
				var before string
				if a, err := e.plan(prefix+tmpl, e.Mgr.Schema()); err == nil {
					before = a.Query.String()
				}
				got, gotErr := e.RunCtx(ctx, prefix+tmpl, def, params...)
				want, wantErr := (*Result)(nil), bindErr
				if bindErr == nil {
					want, wantErr = e.RunCtx(ctx, prefix+bound, def)
				}
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("engine %d: %s%q %v: plan binding err=%v, textual err=%v",
						ei, prefix, tmpl, params, gotErr, wantErr)
				}
				if gotErr == nil {
					if g, w := signature(got, nil), signature(want, nil); g != w {
						t.Fatalf("engine %d: %s%q %v:\n--- plan binding ---\n%s--- textual %q ---\n%s",
							ei, prefix, tmpl, params, g, bound, w)
					}
				}
				if a, err := e.plan(prefix+tmpl, e.Mgr.Schema()); err == nil && before != "" && a.Query.String() != before {
					t.Fatalf("engine %d: binding wrote the template: %q became %q", ei, before, a.Query.String())
				}
			}
		}
	})
}

// TestPlanBindErrors pins the refusals plan binding shares with Bind, and
// the slot-position rule Bind never needed.
func TestPlanBindErrors(t *testing.T) {
	e, _, _ := fixture(t, false)
	cases := []struct {
		src    string
		params []value.V
		msg    string
	}{
		{`SELECT (name) FROM Emp WHERE salary > $2`, []value.V{value.Int(1)}, "placeholder $2 out of range (have 1 parameters)"},
		{`SELECT (name) FROM Emp WHERE salary > $1`, nil, "placeholder $1 out of range (have 0 parameters)"},
		{`SELECT (name) FROM Emp WHERE salary > $0`, nil, "placeholder $0 out of range"},
		{`SELECT (name) FROM Emp WHERE salary > $1`, []value.V{value.Int(1), value.Int(2)}, "parameter $2 is never referenced"},
		{`SELECT (name) FROM Emp WHERE salary > $1`, []value.V{value.Float(nan())}, "parameter $1: float NaN has no TMQL literal syntax"},
		{`SELECT (name) FROM Emp WHERE salary > $1`, []value.V{value.Float(math.Inf(1))}, "parameter $1: float +Inf has no TMQL literal syntax"},
		{`SELECT (name) FROM Emp WHERE salary > $x`, nil, "stray '$'"},
		{`SELECT (name) FROM Emp AT $1`, []value.V{value.Int(5)}, "placeholder $1 at position 26: placeholders stand only for WHERE and HAVING operands"},
		{`SELECT (name) FROM Emp WHERE name = "a" LIMIT $1`, []value.V{value.Int(5)}, "placeholder $1 at position 46: placeholders stand"},
		{`SELECT HISTORY(salary) FROM Emp DURING [$1, 10)`, []value.V{value.Int(5)}, "placeholder $1 at position 40: placeholders stand"},
		{`SELECT (name) FROM Emp ASOF $1`, []value.V{value.Int(5)}, "placeholder $1 at position 28: placeholders stand"},
		{`SELECT (name) FROM $1`, []value.V{value.String_("Emp")}, "placeholder $1 at position 19: placeholders stand"},
		{`SELECT (name) FROM Emp WHEN VALID(salary) OVERLAPS PERIOD [0, $1)`, []value.V{value.Int(5)}, "placeholder $1 at position 62: placeholders stand"},
		{`SELECT (name) FROM Emp WHEN VALID(salary) $1 PERIOD [0, 10)`, []value.V{value.Int(5)}, `found "$1" at position 42`},
		{`SELECT (name) FROM Emp WHEN $1 OVERLAPS PERIOD [0, 10)`, []value.V{value.Int(5)}, `found "$1" at position 28`},
	}
	for _, c := range cases {
		_, err := e.RunCtx(context.Background(), c.src, Defaults{VT: 10}, c.params...)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("RunCtx(%q, %v) = %v, want an error containing %q", c.src, c.params, err, c.msg)
		}
	}

	// A slot renders as $n, so a template reads back as written.
	q, err := Parse(`SELECT (name) FROM Emp WHERE salary > $1 AND NOT name = $12`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.Where.String(), "((salary > $1) AND NOT ((name = $12)))"; got != want {
		t.Fatalf("template WHERE renders %q, want %q", got, want)
	}
	if _, err := Parse(q.String()); err != nil {
		t.Fatalf("re-Parse(%q): %v", q.String(), err)
	}
}

// TestPlanBindManySlots: binding is linear in the slots and parameters,
// which both come from one client frame. A check that scanned the slots
// once per parameter takes about 20 s at this size; a linear one well
// under a second, even under -race.
func TestPlanBindManySlots(t *testing.T) {
	e, _, _ := fixture(t, false)
	const k = 200_000
	var sb strings.Builder
	sb.WriteString("SELECT (name) FROM Emp WHERE salary = $1")
	params := []value.V{value.Int(0)}
	for i := 2; i <= k; i++ {
		fmt.Fprintf(&sb, " OR salary = $%d", i)
		params = append(params, value.Int(int64(i)))
	}
	q, err := Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q, e.Mgr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := bind(a, params); err != nil {
		t.Fatal(err)
	}
	if _, err := bind(a, append(params, value.Int(1))); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("parameter $%d is never referenced", k+1)) {
		t.Fatalf("bind with an extra parameter = %v, want never referenced", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("binding %d slots took %v", k, d)
	}
}

// TestPlanCacheFollowsSchema: a cached template is analyzed again once DDL
// has installed a new schema (copy, modify, freeze, swap, as core's DDL
// does); a statement that failed before the DDL succeeds after it; and the
// cache stays at its bound however many texts run through it.
func TestPlanCacheFollowsSchema(t *testing.T) {
	e, _, _ := fixture(t, false)
	run := func(src string, params ...value.V) (*Result, error) {
		return e.RunCtx(context.Background(), src, Defaults{VT: 10}, params...)
	}
	ddl := func(mutate func(*schema.Schema) error) {
		next := e.Mgr.Schema().Clone()
		if err := mutate(next); err != nil {
			t.Fatal(err)
		}
		next.Freeze()
		e.Mgr.SetSchema(next)
	}
	const cached = `SELECT (name, salary) FROM Emp WHERE salary > $1 AT 10`
	const bonus = `SELECT (name, bonus) FROM Emp AT 10`
	const staff = `SELECT (Dept.name, COUNT(Emp)) FROM Staff AT 10`
	first, err := run(cached, value.Int(2500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(bonus); err == nil || !strings.Contains(err.Error(), `no attribute "bonus"`) {
		t.Fatalf("before DDL: %v, want a no-attribute error", err)
	}
	if _, err := run(staff); err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Fatalf("before DDL: %v, want an unknown-type error", err)
	}

	reanalyzed := func(step string) {
		t.Helper()
		old := e.plans.m[cached].a
		got, err := run(cached, value.Int(2500))
		if err != nil {
			t.Fatal(err)
		}
		if c := e.plans.m[cached]; c.a == old || c.sch != e.Mgr.Schema() {
			t.Fatalf("after %s: the cached template was not analyzed again", step)
		}
		if signature(got, nil) != signature(first, nil) {
			t.Fatalf("after %s: answer changed:\n%s\nwant\n%s", step, signature(got, nil), signature(first, nil))
		}
	}
	ddl(func(s *schema.Schema) error {
		return s.AddAttribute("Emp", schema.Attribute{Name: "bonus", Kind: value.KindInt, Temporal: true})
	})
	reanalyzed("AddAttribute")
	if res, err := run(bonus); err != nil || len(res.Rows) != 5 {
		t.Fatalf("after AddAttribute: %v, %v", res, err)
	}
	ddl(func(s *schema.Schema) error {
		return s.AddMoleculeType(schema.MoleculeType{
			Name:  "Staff",
			Root:  "Dept",
			Edges: []schema.MoleculeEdge{{From: "Dept", Attr: "dept", To: "Emp", Reverse: true}},
		})
	})
	reanalyzed("AddMoleculeType")
	if res, err := run(staff); err != nil || len(res.Rows) != 2 {
		t.Fatalf("after AddMoleculeType: %v, %v", res, err)
	}

	// Salaries at vt=10 are 1000..5000; each text is a distinct threshold.
	for i := 0; i < planCacheSize+100; i++ {
		res, err := run(fmt.Sprintf(`SELECT (name) FROM Emp WHERE salary > %d AT 10`, 10*i))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for s := 1000; s <= 5000; s += 1000 {
			if s > 10*i {
				want++
			}
		}
		if len(res.Rows) != want {
			t.Fatalf("threshold %d: %d rows, want %d", 10*i, len(res.Rows), want)
		}
	}
	if n := len(e.plans.m); n != planCacheSize {
		t.Fatalf("plan cache holds %d texts, want %d", n, planCacheSize)
	}

	// A statement longer than maxPlanText runs but is not kept.
	long := `SELECT (name) FROM Emp WHERE salary = $1` + strings.Repeat(` OR salary = $1`, maxPlanText/15) + ` AT 10`
	if res, err := run(long, value.Int(2000)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("long statement: %v, %v", res, err)
	}
	if _, kept := e.plans.m[long]; kept {
		t.Fatalf("a %d-byte statement was kept", len(long))
	}
}
