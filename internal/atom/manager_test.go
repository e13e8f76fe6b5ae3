package atom

import (
	"errors"
	"testing"

	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

func personnelSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s := schema.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddAtomType(schema.AtomType{
		Name: "Dept",
		Attrs: []schema.Attribute{
			{Name: "name", Kind: value.KindString, Required: true},
			{Name: "budget", Kind: value.KindInt, Temporal: true},
		},
	}))
	must(s.AddAtomType(schema.AtomType{
		Name: "Emp",
		Attrs: []schema.Attribute{
			{Name: "name", Kind: value.KindString, Required: true},
			{Name: "salary", Kind: value.KindInt, Temporal: true},
			{Name: "dept", Kind: value.KindID, Target: "Dept", Card: schema.One, Temporal: true},
		},
	}))
	must(s.AddAtomType(schema.AtomType{
		Name: "Proj",
		Attrs: []schema.Attribute{
			{Name: "title", Kind: value.KindString},
			{Name: "members", Kind: value.KindID, Target: "Emp", Card: schema.Many, Temporal: true},
		},
	}))
	s.Freeze()
	return s
}

func newManager(t testing.TB, strat Strategy) *Manager {
	t.Helper()
	dev := storage.NewMemDevice()
	pool := storage.NewBufferPool(dev, 256)
	if err := storage.InitMeta(pool); err != nil {
		t.Fatal(err)
	}
	heap := storage.NewHeap(pool, nil)
	m, err := NewManager(heap, pool, personnelSchema(t), Options{Strategy: strat, TimeIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newManagerOpts(t testing.TB, opts Options) *Manager {
	t.Helper()
	dev := storage.NewMemDevice()
	pool := storage.NewBufferPool(dev, 256)
	if err := storage.InitMeta(pool); err != nil {
		t.Fatal(err)
	}
	heap := storage.NewHeap(pool, nil)
	m, err := NewManager(heap, pool, personnelSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func forAllStrategies(t *testing.T, fn func(t *testing.T, m *Manager)) {
	for _, s := range []Strategy{StrategyEmbedded, StrategySeparated, StrategyTuple} {
		t.Run(s.String(), func(t *testing.T) {
			fn(t, newManager(t, s))
		})
	}
}

func TestInsertAndCurrentState(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		id, err := m.Insert("Emp", map[string]value.V{
			"name":   value.String_("kaefer"),
			"salary": value.Int(4200),
		}, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.StateAt(id, 15, Now)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Alive {
			t.Error("atom not alive within lifespan")
		}
		if got := st.Vals["name"]; got.AsString() != "kaefer" {
			t.Errorf("name = %v", got)
		}
		if got := st.Vals["salary"]; got.AsInt() != 4200 {
			t.Errorf("salary = %v", got)
		}
		// Before creation: not alive.
		st, err = m.StateAt(id, 5, Now)
		if err != nil {
			t.Fatal(err)
		}
		if st.Alive {
			t.Error("atom alive before its lifespan")
		}
	})
}

func TestInsertValidation(t *testing.T) {
	m := newManager(t, StrategyEmbedded)
	if _, err := m.Insert("Ghost", nil, 0, 1); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := m.Insert("Emp", map[string]value.V{"name": value.Int(1)}, 0, 1); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := m.Insert("Emp", map[string]value.V{"salary": value.Int(1)}, 0, 1); err == nil {
		t.Error("missing required attribute accepted")
	}
	if _, err := m.Insert("Emp", map[string]value.V{"name": value.String_("x"), "bogus": value.Int(1)}, 0, 1); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := m.Insert("Proj", map[string]value.V{"title": value.String_("t"), "members": value.Ref(1)}, 0, 1); err == nil {
		t.Error("many-reference in insert accepted")
	}
}

func TestUpdateCreatesHistory(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		id, err := m.Insert("Emp", map[string]value.V{
			"name":   value.String_("schoening"),
			"salary": value.Int(1000),
		}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, raise := range []int64{2000, 3000, 4000} {
			from := temporal.Instant(10 * (i + 1))
			if err := m.UpdateAttr(id, "salary", value.Int(raise), temporal.Open(from), temporal.Instant(i+2)); err != nil {
				t.Fatal(err)
			}
		}
		// Time slices across the history.
		cases := []struct {
			vt   temporal.Instant
			want int64
		}{{5, 1000}, {10, 2000}, {15, 2000}, {25, 3000}, {30, 4000}, {1000, 4000}}
		for _, c := range cases {
			st, err := m.StateAt(id, c.vt, Now)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Vals["salary"].AsInt(); got != c.want {
				t.Errorf("salary at %d = %d, want %d", c.vt, got, c.want)
			}
		}
		// Full history.
		hist, err := m.History(id, "salary", Now)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != 4 {
			t.Fatalf("history has %d versions, want 4: %v", len(hist), hist)
		}
		wantIv := []temporal.Interval{
			temporal.NewInterval(0, 10),
			temporal.NewInterval(10, 20),
			temporal.NewInterval(20, 30),
			temporal.Open(30),
		}
		for i, v := range hist {
			if !v.Valid.Equal(wantIv[i]) {
				t.Errorf("version %d valid = %v, want %v", i, v.Valid, wantIv[i])
			}
		}
	})
}

func TestRetroactiveUpdate(t *testing.T) {
	// Only embedded and separated support bounded-past corrections.
	for _, s := range []Strategy{StrategyEmbedded, StrategySeparated} {
		t.Run(s.String(), func(t *testing.T) {
			m := newManager(t, s)
			id, _ := m.Insert("Emp", map[string]value.V{
				"name": value.String_("x"), "salary": value.Int(100),
			}, 0, 1)
			if err := m.UpdateAttr(id, "salary", value.Int(200), temporal.Open(50), 2); err != nil {
				t.Fatal(err)
			}
			// Retroactive correction: salary was actually 150 during [20, 40).
			if err := m.UpdateAttr(id, "salary", value.Int(150), temporal.NewInterval(20, 40), 3); err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				vt   temporal.Instant
				want int64
			}{{10, 100}, {20, 150}, {39, 150}, {40, 100}, {50, 200}}
			for _, c := range cases {
				st, err := m.StateAt(id, c.vt, Now)
				if err != nil {
					t.Fatal(err)
				}
				if got := st.Vals["salary"].AsInt(); got != c.want {
					t.Errorf("salary at %d = %d, want %d", c.vt, got, c.want)
				}
			}
			// As recorded BEFORE the correction (transaction time 2), the
			// old belief is preserved.
			st, err := m.StateAt(id, 30, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Vals["salary"].AsInt(); got != 100 {
				t.Errorf("salary at vt=30 as of tt=2 = %d, want 100", got)
			}
			// Another retroactive change after the first (exercises the
			// separated full path via the watermark).
			if err := m.UpdateAttr(id, "salary", value.Int(125), temporal.NewInterval(25, 30), 4); err != nil {
				t.Fatal(err)
			}
			st, _ = m.StateAt(id, 27, Now)
			if got := st.Vals["salary"].AsInt(); got != 125 {
				t.Errorf("salary at 27 after second correction = %d", got)
			}
			st, _ = m.StateAt(id, 35, Now)
			if got := st.Vals["salary"].AsInt(); got != 150 {
				t.Errorf("salary at 35 after second correction = %d", got)
			}
		})
	}
}

func TestTupleRejectsRetroactive(t *testing.T) {
	m := newManager(t, StrategyTuple)
	id, _ := m.Insert("Emp", map[string]value.V{
		"name": value.String_("x"), "salary": value.Int(100),
	}, 0, 1)
	err := m.UpdateAttr(id, "salary", value.Int(150), temporal.NewInterval(20, 40), 2)
	if !errors.Is(err, ErrStrategy) {
		t.Errorf("bounded update error = %v, want ErrStrategy", err)
	}
	if err := m.UpdateAttr(id, "salary", value.Int(200), temporal.Open(50), 2); err != nil {
		t.Fatal(err)
	}
	err = m.UpdateAttr(id, "salary", value.Int(1), temporal.Open(10), 3)
	if !errors.Is(err, ErrStrategy) {
		t.Errorf("backdated open update error = %v, want ErrStrategy", err)
	}
}

func TestOneReferenceAndBackRefs(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		d1, _ := m.Insert("Dept", map[string]value.V{"name": value.String_("K1")}, 0, 1)
		d2, _ := m.Insert("Dept", map[string]value.V{"name": value.String_("K2")}, 0, 1)
		e, _ := m.Insert("Emp", map[string]value.V{
			"name": value.String_("w"), "dept": value.Ref(d1),
		}, 0, 2)

		// Move the employee to d2 at time 50.
		if err := m.UpdateAttr(e, "dept", value.Ref(d2), temporal.Open(50), 3); err != nil {
			t.Fatal(err)
		}
		st, err := m.StateAt(e, 10, Now)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Vals["dept"].AsID(); got != d1 {
			t.Errorf("dept at 10 = %v, want %v", got, d1)
		}
		st, _ = m.StateAt(e, 60, Now)
		if got := st.Vals["dept"].AsID(); got != d2 {
			t.Errorf("dept at 60 = %v, want %v", got, d2)
		}
		// Back-references: d1 employs e only before 50.
		d1st, err := m.StateAt(d1, 10, Now)
		if err != nil {
			t.Fatal(err)
		}
		if refs := d1st.BackRefs["Emp.dept"]; len(refs) != 1 || refs[0] != e {
			t.Errorf("d1 backrefs at 10 = %v", refs)
		}
		d1st, _ = m.StateAt(d1, 60, Now)
		if refs := d1st.BackRefs["Emp.dept"]; len(refs) != 0 {
			t.Errorf("d1 backrefs at 60 = %v, want none", refs)
		}
		d2st, _ := m.StateAt(d2, 60, Now)
		if refs := d2st.BackRefs["Emp.dept"]; len(refs) != 1 || refs[0] != e {
			t.Errorf("d2 backrefs at 60 = %v", refs)
		}
	})
}

func TestManyReferences(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		e1, _ := m.Insert("Emp", map[string]value.V{"name": value.String_("a")}, 0, 1)
		e2, _ := m.Insert("Emp", map[string]value.V{"name": value.String_("b")}, 0, 1)
		p, _ := m.Insert("Proj", map[string]value.V{"title": value.String_("prima")}, 0, 2)

		if err := m.AddRef(p, "members", e1, temporal.Open(10), 3); err != nil {
			t.Fatal(err)
		}
		if err := m.AddRef(p, "members", e2, temporal.Open(20), 4); err != nil {
			t.Fatal(err)
		}
		st, err := m.StateAt(p, 15, Now)
		if err != nil {
			t.Fatal(err)
		}
		if ids := st.SetIDs("members"); len(ids) != 1 || ids[0] != e1 {
			t.Errorf("members at 15 = %v", ids)
		}
		st, _ = m.StateAt(p, 25, Now)
		if ids := st.SetIDs("members"); len(ids) != 2 {
			t.Errorf("members at 25 = %v", ids)
		}
		// e1 leaves at 30.
		if err := m.RemoveRef(p, "members", e1, temporal.Open(30), 5); err != nil {
			t.Fatal(err)
		}
		st, _ = m.StateAt(p, 35, Now)
		if ids := st.SetIDs("members"); len(ids) != 1 || ids[0] != e2 {
			t.Errorf("members at 35 = %v", ids)
		}
		// Membership history of e1 via back-references.
		e1st, _ := m.StateAt(e1, 25, Now)
		if refs := e1st.BackRefs["Proj.members"]; len(refs) != 1 || refs[0] != p {
			t.Errorf("e1 backrefs at 25 = %v", refs)
		}
		e1st, _ = m.StateAt(e1, 35, Now)
		if len(e1st.BackRefs["Proj.members"]) != 0 {
			t.Errorf("e1 backrefs at 35 = %v, want none", e1st.BackRefs["Proj.members"])
		}
	})
}

func TestDeleteEndsLifespan(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		id, _ := m.Insert("Emp", map[string]value.V{"name": value.String_("done")}, 0, 1)
		if err := m.Delete(id, 100, 2); err != nil {
			t.Fatal(err)
		}
		st, err := m.StateAt(id, 50, Now)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Alive {
			t.Error("atom dead before deletion point")
		}
		st, _ = m.StateAt(id, 150, Now)
		if st.Alive {
			t.Error("atom alive after deletion")
		}
	})
}

func TestIDsAndScanType(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		var want []value.ID
		for i := 0; i < 10; i++ {
			id, err := m.Insert("Emp", map[string]value.V{"name": value.String_("e")}, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
		}
		if _, err := m.Insert("Dept", map[string]value.V{"name": value.String_("d")}, 0, 1); err != nil {
			t.Fatal(err)
		}
		got, err := m.IDs("Emp")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("IDs[%d] = %v, want %v", i, got[i], want[i])
			}
		}
		n := 0
		err = m.ScanType("Emp", func(id value.ID, rid storage.RID) (bool, error) {
			n++
			return true, nil
		})
		if err != nil || n != 10 {
			t.Fatalf("ScanType visited %d, err %v", n, err)
		}
	})
}

func TestHistoryInvariants(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		id, _ := m.Insert("Emp", map[string]value.V{
			"name": value.String_("inv"), "salary": value.Int(1),
		}, 0, 1)
		for i := 1; i <= 20; i++ {
			if err := m.UpdateAttr(id, "salary", value.Int(int64(i*10)), temporal.Open(temporal.Instant(i*5)), temporal.Instant(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		a, err := m.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Attr("salary").CheckInvariant(Now); err != nil {
			t.Error(err)
		}
		// History is gapless and ordered.
		hist, _ := m.History(id, "salary", Now)
		for i := 1; i < len(hist); i++ {
			if hist[i-1].Valid.To != hist[i].Valid.From {
				t.Errorf("gap between versions %d and %d: %v -> %v", i-1, i, hist[i-1].Valid, hist[i].Valid)
			}
		}
		if len(hist) == 0 || !hist[len(hist)-1].Valid.IsOpenEnded() {
			t.Error("newest version should be open-ended")
		}
	})
}

func TestSeparatedFastPathStats(t *testing.T) {
	m := newManager(t, StrategySeparated)
	id, _ := m.Insert("Emp", map[string]value.V{
		"name": value.String_("fast"), "salary": value.Int(1),
	}, 0, 1)
	for i := 1; i <= 50; i++ {
		if err := m.UpdateAttr(id, "salary", value.Int(int64(i)), temporal.Open(temporal.Instant(i)), temporal.Instant(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	m.ResetStats()
	// Current-state reads must not touch history.
	for i := 0; i < 10; i++ {
		if _, err := m.StateAt(id, 1000, Now); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.FastLoads != 10 || st.FullLoads != 0 || st.SegmentReads != 0 {
		t.Errorf("current reads were not fast: %+v", st)
	}
	// An old time-slice must walk history.
	if _, err := m.StateAt(id, 5, Now); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.FullLoads != 1 || st.SegmentReads == 0 {
		t.Errorf("old slice did not walk history: %+v", st)
	}
}

func TestTimeIndexScan(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		// Atoms with salary versions starting at 0 and at i*10.
		var ids []value.ID
		for i := 0; i < 10; i++ {
			id, _ := m.Insert("Emp", map[string]value.V{
				"name": value.String_("t"), "salary": value.Int(1),
			}, 0, 1)
			ids = append(ids, id)
		}
		for i, id := range ids {
			if i == 0 {
				continue // ids[0] keeps only its initial version
			}
			if err := m.UpdateAttr(id, "salary", value.Int(2), temporal.Open(temporal.Instant(i*10)), 2); err != nil {
				t.Fatal(err)
			}
		}
		// Scan for atoms with a salary version starting before 25:
		// all have the initial version at 0, so all 10 qualify.
		seen := map[value.ID]bool{}
		err := m.TimeIndexScan("Emp", "salary", 25, func(id value.ID) (bool, error) {
			seen[id] = true
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 10 {
			t.Errorf("time index scan found %d atoms, want 10", len(seen))
		}
	})
}

func TestRebuildIndexes(t *testing.T) {
	for _, s := range []Strategy{StrategyEmbedded, StrategySeparated, StrategyTuple} {
		t.Run(s.String(), func(t *testing.T) {
			dev := storage.NewMemDevice()
			pool := storage.NewBufferPool(dev, 256)
			if err := storage.InitMeta(pool); err != nil {
				t.Fatal(err)
			}
			heap := storage.NewHeap(pool, nil)
			m, err := NewManager(heap, pool, personnelSchema(t), Options{Strategy: s, TimeIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			var ids []value.ID
			for i := 0; i < 20; i++ {
				id, err := m.Insert("Emp", map[string]value.V{
					"name": value.String_("r"), "salary": value.Int(int64(i)),
				}, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			for _, id := range ids[:10] {
				if err := m.UpdateAttr(id, "salary", value.Int(999), temporal.Open(10), 2); err != nil {
					t.Fatal(err)
				}
			}
			// Simulate index loss: rebuild from the heap.
			roots, err := m.RebuildIndexes(pool)
			if err != nil {
				t.Fatal(err)
			}
			if roots.NextID != uint64(ids[len(ids)-1])+1 {
				t.Errorf("rebuilt NextID = %d", roots.NextID)
			}
			for i, id := range ids {
				st, err := m.StateAt(id, 20, Now)
				if err != nil {
					t.Fatalf("atom %v lost after rebuild: %v", id, err)
				}
				want := int64(i)
				if i < 10 {
					want = 999
				}
				if got := st.Vals["salary"].AsInt(); got != want {
					t.Errorf("atom %v salary = %d, want %d", id, got, want)
				}
			}
			if got, _ := m.IDs("Emp"); len(got) != 20 {
				t.Errorf("type index rebuilt with %d entries", len(got))
			}
		})
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{StrategyEmbedded, StrategySeparated, StrategyTuple} {
		got, ok := ParseStrategy(s.String())
		if !ok || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := ParseStrategy("bogus"); ok {
		t.Error("bogus strategy parsed")
	}
}

func TestStateAtUnknownAtom(t *testing.T) {
	m := newManager(t, StrategyEmbedded)
	if _, err := m.StateAt(999, 0, Now); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}
