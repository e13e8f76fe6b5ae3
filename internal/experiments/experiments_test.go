package experiments

import (
	"strings"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/workload"
)

func TestBuildPersonnelDB(t *testing.T) {
	p := workload.PersonnelParams{Depts: 2, Emps: 10, UpdatesPerEmp: 2, TimeStep: 10, Seed: 1}
	for _, s := range Strategies {
		db, emps, err := BuildPersonnelDB(s, p, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(emps) != 10 {
			t.Errorf("emps = %d", len(emps))
		}
		sum, err := scanCurrentSalaries(db, emps, 100, atom.Now)
		if err != nil || sum == 0 {
			t.Errorf("salary sum = %d, %v", sum, err)
		}
		db.Close()
	}
}

func TestBuildCADDB(t *testing.T) {
	p := workload.CADParams{Assemblies: 2, Fanout: 2, Depth: 2, Revisions: 1, TimeStep: 10, Seed: 1}
	db, asms, err := BuildCADDB(atom.StrategySeparated, p)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if len(asms) != 2 {
		t.Errorf("assemblies = %d", len(asms))
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "T-X", Title: "test", Claim: "c",
		Columns: []string{"a", "bee"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	s := tbl.String()
	for _, want := range []string{"T-X", "claim: c", "bee", "333", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// TestSuiteRuns executes every registered experiment end-to-end (slow;
// skipped with -short). It checks structure, not timings.
func TestSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow; run without -short")
	}
	cfg := Config{Scale: 1, Dir: t.TempDir(), Cores: []int{1, 2}}
	seen := map[string]bool{}
	for _, e := range Suite {
		if seen[e.ID] {
			t.Errorf("%s registered twice", e.ID)
		}
		seen[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("registered as %s, table says %s", e.ID, tbl.ID)
			}
			if len(tbl.Rows) < e.MinRows {
				t.Errorf("%s rows = %d, want at least %d", e.ID, len(tbl.Rows), e.MinRows)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("%s row width %d != %d columns", e.ID, len(row), len(tbl.Columns))
				}
			}
		})
	}
}
