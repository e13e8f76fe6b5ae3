package core

import (
	"strings"
	"testing"

	"tcodm/internal/atom"
	"tcodm/internal/schema"
	"tcodm/internal/value"
)

func TestSchemaEvolutionAddAttribute(t *testing.T) {
	for _, strat := range []atom.Strategy{atom.StrategyEmbedded, atom.StrategySeparated, atom.StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			e := openMem(t, strat)
			// An atom written under the original schema.
			tx, _ := e.Begin()
			old, err := tx.Insert("Emp", map[string]value.V{
				"name": value.String_("pre"), "salary": value.Int(100),
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			_ = tx.Commit()

			// A statement naming the attribute fails before the DDL (and
			// is not kept as a plan); the same text runs after it.
			const bonusQuery = `SELECT (name, bonus) FROM Emp AT 10`
			if _, err := e.Query(bonusQuery); err == nil || !strings.Contains(err.Error(), `no attribute "bonus"`) {
				t.Fatalf("before DDL: %v, want a no-attribute error", err)
			}

			// Evolve: add a bonus attribute.
			if err := e.DefineAttribute("Emp", schema.Attribute{
				Name: "bonus", Kind: value.KindInt, Temporal: true,
			}); err != nil {
				t.Fatal(err)
			}
			if res, err := e.Query(bonusQuery); err != nil || len(res.Rows) != 1 || !res.Rows[0][1].IsNull() {
				t.Fatalf("after DDL: %v, %v", res, err)
			}

			// Old atoms read Null for the new attribute.
			st, err := e.StateAt(old, 10, atom.Now)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := st.Vals["bonus"]; !ok || !got.IsNull() {
				t.Errorf("bonus on pre-evolution atom = %v (present %v)", got, ok)
			}

			// Old atoms accept updates to the new attribute.
			tx2, _ := e.Begin()
			if err := tx2.Set(old, "bonus", value.Int(500), 50); err != nil {
				t.Fatal(err)
			}
			_ = tx2.Commit()
			st, _ = e.StateAt(old, 60, atom.Now)
			if st.Vals["bonus"].AsInt() != 500 {
				t.Errorf("bonus after update = %v", st.Vals["bonus"])
			}
			st, _ = e.StateAt(old, 10, atom.Now)
			if !st.Vals["bonus"].IsNull() {
				t.Errorf("bonus before its first version = %v", st.Vals["bonus"])
			}

			// New atoms can set it at insert.
			tx3, _ := e.Begin()
			fresh, err := tx3.Insert("Emp", map[string]value.V{
				"name": value.String_("post"), "bonus": value.Int(1),
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			_ = tx3.Commit()
			st, _ = e.StateAt(fresh, 10, atom.Now)
			if st.Vals["bonus"].AsInt() != 1 {
				t.Errorf("bonus on post-evolution atom = %v", st.Vals["bonus"])
			}

			// TMQL sees the new attribute.
			res, err := e.Query(`SELECT (name, bonus) FROM Emp WHERE bonus = 500 AT 60`)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "pre" {
				t.Errorf("query rows = %v", res.Rows)
			}
		})
	}
}

func TestSchemaEvolutionValidation(t *testing.T) {
	e := openMem(t, atom.StrategySeparated)
	cases := []struct {
		attr schema.Attribute
		frag string
	}{
		{schema.Attribute{Name: "name", Kind: value.KindInt}, "duplicate"},
		{schema.Attribute{Name: "x", Kind: value.KindInt, Required: true}, "cannot be required"},
		{schema.Attribute{Name: "r", Kind: value.KindID, Target: "Ghost"}, "unknown target"},
		{schema.Attribute{Name: "bad name", Kind: value.KindInt}, "invalid attribute name"},
	}
	for _, c := range cases {
		err := e.DefineAttribute("Emp", c.attr)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("DefineAttribute(%+v) = %v, want %q", c.attr, err, c.frag)
		}
	}
	if err := e.DefineAttribute("Ghost", schema.Attribute{Name: "x", Kind: value.KindInt}); err == nil {
		t.Error("evolution of unknown type accepted")
	}
}

func TestSchemaEvolutionPersistsAndNewRefWorks(t *testing.T) {
	e := openMem(t, atom.StrategySeparated)
	tx, _ := e.Begin()
	d, _ := tx.Insert("Dept", map[string]value.V{"name": value.String_("hq")}, 0)
	emp, _ := tx.Insert("Emp", map[string]value.V{"name": value.String_("m")}, 0)
	_ = tx.Commit()
	// Add a reference attribute by evolution and use it.
	if err := e.DefineAttribute("Emp", schema.Attribute{
		Name: "mentorDept", Kind: value.KindID, Target: "Dept", Card: schema.One, Temporal: true,
	}); err != nil {
		t.Fatal(err)
	}
	tx2, _ := e.Begin()
	if err := tx2.Set(emp, "mentorDept", value.Ref(d), 10); err != nil {
		t.Fatal(err)
	}
	_ = tx2.Commit()
	// The inverse link appears on the target.
	dst, err := e.StateAt(d, 20, atom.Now)
	if err != nil {
		t.Fatal(err)
	}
	if refs := dst.BackRefs["Emp.mentorDept"]; len(refs) != 1 || refs[0] != emp {
		t.Errorf("backrefs = %v", dst.BackRefs)
	}
}
