package workload

import (
	"bytes"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/baseline"
	"tcodm/internal/core"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

func openPersonnelDB(t *testing.T, opts core.Options) *core.Engine {
	t.Helper()
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	sch, err := PersonnelSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := Install(db, sch); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPersonnelDeterminism(t *testing.T) {
	p := DefaultPersonnel()
	a := Personnel(p)
	b := Personnel(p)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].From != b[i].From || a[i].Handle != b[i].Handle {
			t.Fatalf("op %d differs", i)
		}
	}
	// Expected composition.
	inserts := countInserts(a)
	if inserts != p.Depts+p.Emps {
		t.Errorf("inserts = %d, want %d", inserts, p.Depts+p.Emps)
	}
}

// TestLoadIsDeterministic loads one personnel op list into two fresh
// in-memory engines: placement is a function of the operations alone, so
// every page image must match.
func TestLoadIsDeterministic(t *testing.T) {
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			load := func() [][]byte {
				// Both optional indexes, so their splits must follow the
				// operations too.
				db := openPersonnelDB(t, core.Options{Strategy: strat, TimeIndex: true, ValueIndex: true})
				app := NewEngineApplier(db, 64)
				if _, err := Apply(Personnel(DefaultPersonnel()), app); err != nil {
					t.Fatal(err)
				}
				if err := app.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				var pages [][]byte
				for id := storage.PageID(0); id < db.Stats().DevicePags; id++ {
					p, err := db.Pool().Fetch(id)
					if err != nil {
						t.Fatal(err)
					}
					pages = append(pages, append([]byte(nil), p.Data()...))
					db.Pool().Unpin(p)
				}
				return pages
			}
			a, b := load(), load()
			if len(a) != len(b) {
				t.Fatalf("loads produced %d and %d pages", len(a), len(b))
			}
			for id := range a {
				if !bytes.Equal(a[id], b[id]) {
					t.Fatalf("page %d differs between two loads of the same operations", id)
				}
			}
		})
	}
}

func TestPersonnelAppliesToAllStrategies(t *testing.T) {
	p := PersonnelParams{Depts: 3, Emps: 20, UpdatesPerEmp: 3, MovesPerEmp: 1, TimeStep: 10, Seed: 1}
	ops := Personnel(p)
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			db := openPersonnelDB(t, core.Options{Strategy: strat})
			app := NewEngineApplier(db, 16)
			ids, err := Apply(ops, app)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(ids) != p.Depts+p.Emps {
				t.Fatalf("ids = %d", len(ids))
			}
			// Every employee has UpdatesPerEmp+MovesPerEmp+1 dept/salary
			// versions in total; check one.
			hist, err := db.History(ids[p.Depts], "salary", atom.Now)
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) != p.UpdatesPerEmp+1 {
				t.Errorf("salary versions = %d, want %d", len(hist), p.UpdatesPerEmp+1)
			}
			// The molecule query works on the loaded data.
			res, err := db.Query(`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 5`)
			if err != nil {
				t.Fatal(err)
			}
			total := int64(0)
			for _, row := range res.Rows {
				total += row[1].AsInt()
			}
			if total != int64(p.Emps) {
				t.Errorf("total staffed employees = %d, want %d", total, p.Emps)
			}
		})
	}
}

func TestPersonnelAppliesToBaselines(t *testing.T) {
	p := PersonnelParams{Depts: 3, Emps: 20, UpdatesPerEmp: 3, MovesPerEmp: 1, TimeStep: 10, Seed: 1}
	ops := Personnel(p)
	sch, _ := PersonnelSchema()

	st, err := baseline.NewStore(sch, 128)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := Apply(ops, &StoreApplier{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline keeps only the final state.
	got, err := st.Get(ids[p.Depts])
	if err != nil {
		t.Fatal(err)
	}
	if got.Vals["salary"].IsNull() {
		t.Error("baseline lost the salary")
	}
	// Molecule works on the baseline.
	mt, _ := sch.MoleculeType("DeptStaff")
	mol, err := st.Molecule(mt, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(mol) < 1 {
		t.Error("baseline molecule empty")
	}

	ar, err := baseline.NewArchive(sch, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(ops, &ArchiveApplier{Archive: ar}); err != nil {
		t.Fatal(err)
	}
	if ar.Copies() == 0 || ar.ArchivedBytes() == 0 {
		t.Errorf("archive took %d copies, %d bytes", ar.Copies(), ar.ArchivedBytes())
	}
}

func TestCADWorkload(t *testing.T) {
	p := CADParams{Assemblies: 2, Fanout: 2, Depth: 2, Revisions: 2, TimeStep: 10, Seed: 3}
	ops := CAD(p)
	db, err := core.Open(core.Options{Strategy: atom.StrategySeparated})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sch, err := CADSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := Install(db, sch); err != nil {
		t.Fatal(err)
	}
	app := NewEngineApplier(db, 32)
	ids, err := Apply(ops, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each assembly's molecule: fanout=2, depth=2 -> 2 + 2*2 = 6 parts + asm.
	mol, err := db.Molecule("Design", ids[0], 5, atom.Now)
	if err != nil {
		t.Fatal(err)
	}
	wantParts := 2 + 2*2
	if mol.Size() != wantParts+1 {
		t.Errorf("design molecule size = %d, want %d", mol.Size(), wantParts+1)
	}
	// Parts have revision histories.
	parts, err := db.IDs("Part")
	if err != nil || len(parts) == 0 {
		t.Fatalf("parts: %v, %v", parts, err)
	}
	hist, err := db.History(parts[0], "weight", atom.Now)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != p.Revisions+1 {
		t.Errorf("weight versions = %d, want %d", len(hist), p.Revisions+1)
	}
}

func TestApplyPropagatesErrors(t *testing.T) {
	sch := schema.New()
	_ = sch.AddAtomType(schema.AtomType{Name: "T", Attrs: []schema.Attribute{{Name: "x", Kind: value.KindInt}}})
	sch.Freeze()
	st, _ := baseline.NewStore(sch, 64)
	ops := []Op{{Kind: OpInsert, Type: "Missing", From: 0}}
	if _, err := Apply(ops, &StoreApplier{Store: st}); err == nil {
		t.Error("bad op applied silently")
	}
}

func TestCADDeterminism(t *testing.T) {
	p := DefaultCAD()
	a, b := CAD(p), CAD(p)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Handle != b[i].Handle || a[i].Target != b[i].Target {
			t.Fatalf("op %d differs", i)
		}
	}
	// Changing the seed changes the content.
	p2 := p
	p2.Seed++
	c := CAD(p2)
	same := true
	for i := range a {
		if a[i].Kind == OpUpdate && c[i].Kind == OpUpdate && !a[i].Val.Equal(c[i].Val) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical update values")
	}
}

func TestPersonnelHireStagger(t *testing.T) {
	p := PersonnelParams{Depts: 2, Emps: 5, UpdatesPerEmp: 1, HireStagger: 3, TimeStep: 7, Seed: 1}
	ops := Personnel(p)
	// Employee e is inserted at 3e and updated at 3e+7.
	empSeen := 0
	for _, op := range ops {
		if op.Kind == OpInsert && op.Type == "Emp" {
			if op.From != temporal.Instant(3*empSeen) {
				t.Errorf("emp %d hired at %v, want %v", empSeen, op.From, 3*empSeen)
			}
			empSeen++
		}
		if op.Kind == OpUpdate && op.Attr == "salary" {
			h := op.Handle - p.Depts
			if op.From != temporal.Instant(3*h+7) {
				t.Errorf("emp %d updated at %v, want %v", h, op.From, 3*h+7)
			}
		}
	}
	if empSeen != 5 {
		t.Errorf("emps = %d", empSeen)
	}
}
