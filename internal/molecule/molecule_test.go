package molecule

import (
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// cadSchema models the classic design-database workload: assemblies
// containing parts, parts using other parts (a DAG via many-references).
func cadSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddAtomType(schema.AtomType{
		Name: "Assembly",
		Attrs: []schema.Attribute{
			{Name: "name", Kind: value.KindString, Required: true},
			{Name: "rev", Kind: value.KindInt, Temporal: true},
		},
	}))
	must(s.AddAtomType(schema.AtomType{
		Name: "Part",
		Attrs: []schema.Attribute{
			{Name: "name", Kind: value.KindString, Required: true},
			{Name: "weight", Kind: value.KindInt, Temporal: true},
			{Name: "assembly", Kind: value.KindID, Target: "Assembly", Card: schema.One, Temporal: true},
			{Name: "uses", Kind: value.KindID, Target: "Part", Card: schema.Many, Temporal: true},
		},
	}))
	must(s.AddMoleculeType(schema.MoleculeType{
		Name: "Design",
		Root: "Assembly",
		Edges: []schema.MoleculeEdge{
			{From: "Assembly", Attr: "assembly", To: "Part", Reverse: true},
			{From: "Part", Attr: "uses", To: "Part"},
		},
	}))
	s.Freeze()
	return s
}

func newCAD(t *testing.T, strat atom.Strategy) (*atom.Manager, *Builder) {
	t.Helper()
	dev := storage.NewMemDevice()
	pool := storage.NewBufferPool(dev, 256)
	if err := storage.InitMeta(pool); err != nil {
		t.Fatal(err)
	}
	heap := storage.NewHeap(pool, nil)
	m, err := atom.NewManager(heap, pool, cadSchema(t), atom.Options{Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	return m, NewBuilder(m)
}

func forAllStrategies(t *testing.T, fn func(t *testing.T, m *atom.Manager, b *Builder)) {
	for _, s := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(s.String(), func(t *testing.T) {
			m, b := newCAD(t, s)
			fn(t, m, b)
		})
	}
}

func TestMaterializeBasic(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *atom.Manager, b *Builder) {
		asm, _ := m.Insert("Assembly", map[string]value.V{"name": value.String_("engine")}, 0, 1)
		p1, _ := m.Insert("Part", map[string]value.V{
			"name": value.String_("piston"), "assembly": value.Ref(asm),
		}, 0, 2)
		p2, _ := m.Insert("Part", map[string]value.V{
			"name": value.String_("ring"), "assembly": value.Ref(asm),
		}, 0, 3)
		if err := m.AddRef(p1, "uses", p2, temporal.Open(0), 4); err != nil {
			t.Fatal(err)
		}
		mt, _ := m.Schema().MoleculeType("Design")
		mol, err := b.Materialize(mt, asm, 10, atom.Now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mol.Size() != 3 {
			t.Fatalf("molecule size = %d, want 3", mol.Size())
		}
		parts := mol.AtomsOfType("Part")
		if len(parts) != 2 {
			t.Fatalf("parts = %d", len(parts))
		}
		// Edge 0 (reverse assembly): asm -> p1, p2.
		kids := mol.ChildrenOf(asm, 0)
		if len(kids) != 2 {
			t.Errorf("assembly children = %v", kids)
		}
		// Edge 1 (uses): p1 -> p2.
		if kids := mol.ChildrenOf(p1, 1); len(kids) != 1 || kids[0] != p2 {
			t.Errorf("p1 uses = %v", kids)
		}
	})
}

func TestMaterializeTimeSlices(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *atom.Manager, b *Builder) {
		asm, _ := m.Insert("Assembly", map[string]value.V{"name": value.String_("a")}, 0, 1)
		// p joins the assembly only at time 50.
		p, _ := m.Insert("Part", map[string]value.V{"name": value.String_("late")}, 0, 2)
		if err := m.UpdateAttr(p, "assembly", value.Ref(asm), temporal.Open(50), 3); err != nil {
			t.Fatal(err)
		}
		mt, _ := m.Schema().MoleculeType("Design")
		early, err := b.Materialize(mt, asm, 10, atom.Now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if early.Size() != 1 {
			t.Errorf("molecule at 10 has %d atoms, want 1", early.Size())
		}
		late, _ := b.Materialize(mt, asm, 60, atom.Now, nil)
		if late.Size() != 2 {
			t.Errorf("molecule at 60 has %d atoms, want 2", late.Size())
		}
		// Deleting the part removes it from later slices.
		if err := m.Delete(p, 80, 4); err != nil {
			t.Fatal(err)
		}
		after, _ := b.Materialize(mt, asm, 90, atom.Now, nil)
		if after.Size() != 1 {
			t.Errorf("molecule at 90 has %d atoms, want 1", after.Size())
		}
		// But the time slice at 60 still shows it (history preserved).
		again, _ := b.Materialize(mt, asm, 60, atom.Now, nil)
		if again.Size() != 2 {
			t.Errorf("molecule at 60 after deletion has %d atoms, want 2", again.Size())
		}
	})
}

func TestMaterializeCycle(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *atom.Manager, b *Builder) {
		asm, _ := m.Insert("Assembly", map[string]value.V{"name": value.String_("c")}, 0, 1)
		p1, _ := m.Insert("Part", map[string]value.V{
			"name": value.String_("x"), "assembly": value.Ref(asm),
		}, 0, 2)
		p2, _ := m.Insert("Part", map[string]value.V{"name": value.String_("y")}, 0, 3)
		// Cycle: p1 uses p2, p2 uses p1.
		if err := m.AddRef(p1, "uses", p2, temporal.Open(0), 4); err != nil {
			t.Fatal(err)
		}
		if err := m.AddRef(p2, "uses", p1, temporal.Open(0), 5); err != nil {
			t.Fatal(err)
		}
		mt, _ := m.Schema().MoleculeType("Design")
		mol, err := b.Materialize(mt, asm, 10, atom.Now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mol.Size() != 3 {
			t.Fatalf("cyclic molecule size = %d, want 3", mol.Size())
		}
		// The cycle edge is still recorded.
		if kids := mol.ChildrenOf(p2, 1); len(kids) != 1 || kids[0] != p1 {
			t.Errorf("p2 uses = %v", kids)
		}
	})
}

func TestMaterializeDeadRoot(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *atom.Manager, b *Builder) {
		asm, _ := m.Insert("Assembly", map[string]value.V{"name": value.String_("d")}, 10, 1)
		mt, _ := m.Schema().MoleculeType("Design")
		mol, err := b.Materialize(mt, asm, 5, atom.Now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mol.Size() != 0 {
			t.Errorf("molecule before root birth has %d atoms", mol.Size())
		}
	})
}

func TestMaterializeWrongRootType(t *testing.T) {
	m, b := newCAD(t, atom.StrategyEmbedded)
	p, _ := m.Insert("Part", map[string]value.V{"name": value.String_("p")}, 0, 1)
	mt, _ := m.Schema().MoleculeType("Design")
	if _, err := b.Materialize(mt, p, 10, atom.Now, nil); err == nil {
		t.Error("wrong root type accepted")
	}
}

func TestChangePointsAndHistory(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *atom.Manager, b *Builder) {
		asm, _ := m.Insert("Assembly", map[string]value.V{"name": value.String_("h")}, 0, 1)
		p, _ := m.Insert("Part", map[string]value.V{"name": value.String_("p")}, 0, 2)
		if err := m.UpdateAttr(p, "assembly", value.Ref(asm), temporal.Open(20), 3); err != nil {
			t.Fatal(err)
		}
		if err := m.UpdateAttr(p, "weight", value.Int(5), temporal.Open(40), 4); err != nil {
			t.Fatal(err)
		}
		mt, _ := m.Schema().MoleculeType("Design")
		window := temporal.NewInterval(0, 100)
		steps, err := b.History(mt, asm, window, atom.Now)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) < 3 {
			t.Fatalf("history has %d steps, want >= 3: %+v", len(steps), steps)
		}
		// Steps tile the window.
		if steps[0].During.From != 0 {
			t.Errorf("first step starts at %v", steps[0].During.From)
		}
		for i := 1; i < len(steps); i++ {
			if steps[i-1].During.To != steps[i].During.From {
				t.Errorf("gap between steps %d and %d", i-1, i)
			}
		}
		if steps[len(steps)-1].During.To != 100 {
			t.Errorf("last step ends at %v", steps[len(steps)-1].During.To)
		}
		// Before 20 the molecule has 1 atom; after, 2; weight changes at 40.
		if steps[0].Mol.Size() != 1 {
			t.Errorf("step 0 size = %d", steps[0].Mol.Size())
		}
		last := steps[len(steps)-1].Mol
		if last.Size() != 2 {
			t.Errorf("last step size = %d", last.Size())
		}
		if got := last.Atoms[p].Vals["weight"].AsInt(); got != 5 {
			t.Errorf("weight in last step = %d", got)
		}
	})
}

func TestMaxAtomsGuard(t *testing.T) {
	m, b := newCAD(t, atom.StrategyEmbedded)
	b.MaxAtoms = 3
	asm, _ := m.Insert("Assembly", map[string]value.V{"name": value.String_("big")}, 0, 1)
	for i := 0; i < 5; i++ {
		if _, err := m.Insert("Part", map[string]value.V{
			"name": value.String_("p"), "assembly": value.Ref(asm),
		}, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	mt, _ := m.Schema().MoleculeType("Design")
	if _, err := b.Materialize(mt, asm, 10, atom.Now, nil); err == nil {
		t.Error("runaway molecule not capped")
	}
}

func TestReverseManyEdge(t *testing.T) {
	// A molecule rooted at a Part that gathers the parts USING it (the
	// reverse direction of a many-reference): where-used analysis.
	m, _ := newCAD(t, atom.StrategySeparated)
	s := m.Schema().Clone()
	if err := s.AddMoleculeType(schema.MoleculeType{
		Name:  "WhereUsed",
		Root:  "Part",
		Edges: []schema.MoleculeEdge{{From: "Part", Attr: "uses", To: "Part", Reverse: true}},
	}); err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	m.SetSchema(s)
	b := NewBuilder(m)

	base, _ := m.Insert("Part", map[string]value.V{"name": value.String_("bolt")}, 0, 1)
	var users []value.ID
	for i := 0; i < 3; i++ {
		u, _ := m.Insert("Part", map[string]value.V{"name": value.String_("asm")}, 0, 2)
		if err := m.AddRef(u, "uses", base, temporal.Open(temporal.Instant(10*i)), 3); err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
	}
	mt, _ := s.MoleculeType("WhereUsed")
	// At t=5 only the first user links to the bolt.
	mol, err := b.Materialize(mt, base, 5, atom.Now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mol.Size() != 2 {
		t.Errorf("where-used at 5 = %d atoms", mol.Size())
	}
	// At t=25 all three do (plus transitively their own users — none).
	mol, _ = b.Materialize(mt, base, 25, atom.Now, nil)
	if mol.Size() != 4 {
		t.Errorf("where-used at 25 = %d atoms", mol.Size())
	}
	for _, u := range users {
		if _, ok := mol.Atoms[u]; !ok {
			t.Errorf("user %v missing from where-used molecule", u)
		}
	}
}
