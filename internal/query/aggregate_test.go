package query

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

func TestTemporalAggregates(t *testing.T) {
	e, _, emps := fixture(t, false)
	_ = emps
	// ada: salary 1000 during [0, 50), 9000 from 50 on.
	res, err := e.Run(`SELECT (name, TAVG(salary)) FROM Emp WHERE name = "ada" DURING [0, 100) AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	want := (50.0*1000 + 50.0*9000) / 100.0
	if got := res.Rows[0][1].AsFloat(); got != want {
		t.Errorf("TAVG = %v, want %v", got, want)
	}
	// TMIN / TMAX over the same window.
	res, err = e.Run(`SELECT (TMIN(salary), TMAX(salary)) FROM Emp WHERE name = "ada" DURING [0, 100) AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1000 || res.Rows[0][1].AsInt() != 9000 {
		t.Errorf("TMIN/TMAX = %v", res.Rows[0])
	}
	// CHANGES counts value transitions in the window.
	res, err = e.Run(`SELECT (CHANGES(salary)) FROM Emp WHERE name = "ada" DURING [0, 100) AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1 {
		t.Errorf("CHANGES = %v", res.Rows[0][0])
	}
	// A window before the raise sees no change and the initial salary only.
	res, err = e.Run(`SELECT (CHANGES(salary), TMAX(salary)) FROM Emp WHERE name = "ada" DURING [0, 40) AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 0 || res.Rows[0][1].AsInt() != 1000 {
		t.Errorf("windowed aggregates = %v", res.Rows[0])
	}
	// Column labels.
	res, _ = e.Run(`SELECT (TAVG(salary)) FROM Emp WHERE name = "ada" DURING [0, 10) AT 5`, 5)
	if res.Columns[0] != "tavg(Emp.salary)" {
		t.Errorf("label = %q", res.Columns[0])
	}
}

func TestAggregateDefaultsToAllTime(t *testing.T) {
	e, _, _ := fixture(t, false)
	// Without DURING, TAVG spans all time; ada's newest version is
	// open-ended (unbounded weight), so only the bounded [0,50) piece
	// aggregates: average = 1000.
	res, err := e.Run(`SELECT (TAVG(salary)) FROM Emp WHERE name = "ada" AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsFloat(); got != 1000 {
		t.Errorf("all-time TAVG = %v", got)
	}
}

func TestAggregateAnalyzeErrors(t *testing.T) {
	sch := testSchema(t)
	cases := map[string]string{
		`SELECT (TAVG(salary)) FROM DeptStaff`:  "require an atom type",
		`SELECT (TAVG(bogus)) FROM Emp`:         "no attribute",
		`SELECT (name) FROM Emp DURING [0, 10)`: "DURING is only valid",
	}
	for src, frag := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		_, err = Analyze(q, sch)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("Analyze(%q) = %v, want %q", src, err, frag)
		}
	}
}

func TestAggregateNullOnEmptyWindow(t *testing.T) {
	e, _, _ := fixture(t, false)
	// eve was deleted at 80; her history still aggregates, but a window
	// before anyone existed yields Null.
	res, err := e.Run(`SELECT (TAVG(salary)) FROM Emp WHERE name = "bob" DURING [-100, -50) AT 10`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("empty-window TAVG = %v", res.Rows[0][0])
	}
	_ = value.Null
}

func ver(from, to temporal.Instant, v value.V) atom.Version {
	return atom.Version{Valid: temporal.Interval{From: from, To: to}, Val: v}
}

type foldCase struct {
	name   string
	agg    string
	hist   []atom.Version
	window temporal.Interval
	want   value.V
}

func checkFold(t *testing.T, cases []foldCase) {
	t.Helper()
	for _, c := range cases {
		got, err := foldAggregate(c.agg, c.hist, c.window)
		if err != nil || got != c.want {
			t.Errorf("%s: %s = %v, %v; want %v", c.name, c.agg, got, err, c.want)
		}
	}
}

var foldSteps = []atom.Version{ver(0, 10, value.Int(100)), ver(10, 20, value.Int(200))}

func TestFoldWeightedAvg(t *testing.T) {
	checkFold(t, []foldCase{
		{"weighted average", "TAVG", foldSteps, temporal.NewInterval(0, 20), value.Float(150)},
		{"window over a gap", "TAVG", foldSteps, temporal.NewInterval(50, 60), value.Null},
		{"unbounded step has no weight", "TAVG", []atom.Version{ver(0, temporal.Forever, value.Int(5))}, temporal.All(), value.Null},
		{"non-numeric steps skipped", "TAVG", []atom.Version{ver(0, 10, value.String_("x")), ver(10, 20, value.Int(4))}, temporal.NewInterval(0, 20), value.Float(4)},
	})
}

func TestFoldExtremum(t *testing.T) {
	hist := []atom.Version{ver(0, 10, value.Int(3)), ver(10, 20, value.Int(9)), ver(20, 30, value.Int(1))}
	checkFold(t, []foldCase{
		{"maximum", "TMAX", hist, temporal.NewInterval(0, 30), value.Int(9)},
		{"minimum", "TMIN", hist, temporal.NewInterval(0, 30), value.Int(1)},
		{"extremum outside every step", "TMAX", hist, temporal.NewInterval(100, 200), value.Null},
		{"extremum skips nulls", "TMIN", []atom.Version{ver(0, 10, value.Null), ver(10, 20, value.Int(7))}, temporal.NewInterval(0, 20), value.Int(7)},
		{"ties keep the earliest", "TMAX", []atom.Version{ver(0, 10, value.Int(2)), ver(10, 20, value.Float(2))}, temporal.NewInterval(0, 20), value.Int(2)},
	})
}

func TestFoldChanges(t *testing.T) {
	checkFold(t, []foldCase{
		// The gap between 30 and 40 keeps the equal values apart.
		{"equal adjacent values are no change", "CHANGES", []atom.Version{ver(0, 10, value.Int(1)), ver(10, 20, value.Int(1)), ver(20, 30, value.Int(2)), ver(40, 50, value.Int(2))}, temporal.All(), value.Int(2)},
		{"constant history", "CHANGES", []atom.Version{ver(0, 10, value.Int(1)), ver(10, 20, value.Int(1))}, temporal.All(), value.Int(0)},
	})
}

func TestFoldClipsToWindow(t *testing.T) {
	checkFold(t, []foldCase{
		{"window clips the weights", "TAVG", foldSteps, temporal.NewInterval(5, 20), value.Float((5.0*100 + 10.0*200) / 15.0)},
		{"windowed maximum", "TMAX", foldSteps, temporal.NewInterval(0, 10), value.Int(100)},
		{"empty window has no change", "CHANGES", foldSteps, temporal.NewInterval(50, 60), value.Int(0)},
		{"window splits a run", "CHANGES", []atom.Version{ver(0, 100, value.Int(1)), ver(100, 200, value.Int(2))}, temporal.NewInterval(30, 60), value.Int(0)},
	})
}

func TestFoldDropsEmptySteps(t *testing.T) {
	checkFold(t, []foldCase{
		{"empty step dropped", "TAVG", []atom.Version{ver(0, 0, value.Int(9)), ver(0, 10, value.Int(1))}, temporal.All(), value.Float(1)},
		{"empty step is no change", "CHANGES", []atom.Version{ver(0, 10, value.Int(1)), ver(10, 10, value.Int(9)), ver(10, 20, value.Int(1))}, temporal.All(), value.Int(0)},
	})
	if _, err := foldAggregate("TSUM", nil, temporal.All()); err == nil {
		t.Error("unknown aggregate over an empty history should fail")
	}
}

// refAggregate is the step-function arithmetic the fold replaced: copy the
// non-empty versions into steps sorted by start, clip a copy to the window,
// and aggregate (coalescing another copy for CHANGES).
func refAggregate(agg string, hist []atom.Version, window temporal.Interval) value.V {
	var steps []atom.Version
	for _, v := range hist {
		if !v.Valid.IsEmpty() {
			steps = append(steps, v)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].Valid.From < steps[j].Valid.From })
	var clipped []atom.Version
	for _, s := range steps {
		if iv := s.Valid.Intersect(window); !iv.IsEmpty() {
			clipped = append(clipped, atom.Version{Valid: iv, Val: s.Val})
		}
	}
	switch agg {
	case "TAVG":
		var sum, dur float64
		for _, s := range clipped {
			if d := s.Valid.Duration(); s.Val.Numeric() && d != int64(^uint64(0)>>1) {
				sum += s.Val.FloatValue() * float64(d)
				dur += float64(d)
			}
		}
		if dur == 0 {
			return value.Null
		}
		return value.Float(sum / dur)
	case "TMIN", "TMAX":
		best := value.Null
		for _, s := range clipped {
			if s.Val.IsNull() {
				continue
			}
			cmp := s.Val.Compare(best)
			if best.IsNull() || (agg == "TMAX" && cmp > 0) || (agg == "TMIN" && cmp < 0) {
				best = s.Val
			}
		}
		return best
	default: // CHANGES
		var runs []atom.Version
		for _, s := range clipped {
			if n := len(runs); n > 0 && runs[n-1].Val.Equal(s.Val) && runs[n-1].Valid.To == s.Valid.From {
				runs[n-1].Valid.To = s.Valid.To
				continue
			}
			runs = append(runs, s)
		}
		return value.Int(int64(max(len(runs)-1, 0)))
	}
}

// TestFoldMatchesReference compares the fold with the
// step-function arithmetic on random histories — gaps, empty and
// open-ended steps, nulls, runs of equal values — and windows before,
// inside, straddling and after them.
func TestFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	vals := []value.V{value.Null, value.Int(1), value.Int(2), value.Float(2), value.Float(2.5), value.String_("a")}
	pick := func(lo, hi int) temporal.Instant { return temporal.Instant(lo + rng.Intn(hi-lo+1)) }
	for trial := 0; trial < 2000; trial++ {
		var hist []atom.Version
		at := pick(-20, 20)
		if rng.Intn(8) == 0 {
			at = temporal.Beginning
		}
		for i, n := 0, rng.Intn(9); i < n; i++ {
			if rng.Intn(3) == 0 && at != temporal.Beginning {
				at += pick(1, 5) // gap
			}
			to := at + pick(0, 10) // 0: an empty step
			if at == temporal.Beginning {
				to = pick(-20, 20)
			}
			if i == n-1 && rng.Intn(2) == 0 {
				to = temporal.Forever
			}
			hist = append(hist, ver(at, to, vals[rng.Intn(len(vals))]))
			at = max(at, to)
		}
		windows := []temporal.Interval{temporal.All(), temporal.Open(pick(-30, 120))}
		for i := 0; i < 4; i++ {
			from := pick(-40, 120)
			windows = append(windows, temporal.Interval{From: from, To: from + pick(0, 60)})
		}
		for _, w := range windows {
			for _, agg := range []string{"TAVG", "TMIN", "TMAX", "CHANGES"} {
				got, err := foldAggregate(agg, hist, w)
				if want := refAggregate(agg, hist, w); err != nil || got != want {
					t.Fatalf("%s over %v of %v = %v, %v; want %v", agg, w, hist, got, err, want)
				}
			}
		}
	}
}
