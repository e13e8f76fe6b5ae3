package query

import (
	"fmt"

	"tcodm/internal/atom"
	"tcodm/internal/schema"
)

// QueryClass distinguishes the execution shapes.
type QueryClass uint8

const (
	// ClassAtom: FROM names an atom type; rows of projected values.
	ClassAtom QueryClass = iota
	// ClassMolecule: FROM names a molecule type; molecules or per-molecule rows.
	ClassMolecule
	// ClassHistory: SELECT HISTORY(...) over an atom type.
	ClassHistory
)

// Analyzed is a semantically checked query ready for planning.
type Analyzed struct {
	Query *Query
	Class QueryClass

	AtomType *schema.AtomType     // ClassAtom/ClassHistory
	MolType  *schema.MoleculeType // ClassMolecule
	RootType *schema.AtomType     // ClassMolecule: the root's atom type

	// Reads is everything the statement needs of one candidate atom of the
	// FROM (or molecule root) type, so the executor reads each candidate
	// once: the attributes WHERE and the plain projections evaluate at the
	// slice point, the attributes whose history WHEN, HISTORY() and the
	// temporal aggregates range over, and whether WHEN needs the lifespan.
	// Evaluation may touch nothing outside it.
	Reads *atom.ReadSet
}

// Analyze resolves the query against the schema, normalizing unqualified
// attribute references and rejecting inconsistent constructs.
func Analyze(q *Query, sch *schema.Schema) (*Analyzed, error) {
	a := &Analyzed{Query: q}
	if at, ok := sch.AtomType(q.From); ok {
		a.AtomType = at
		a.Class = ClassAtom
	} else if mt, ok := sch.MoleculeType(q.From); ok {
		a.MolType = mt
		root, ok := sch.AtomType(mt.Root)
		if !ok {
			return nil, fmt.Errorf("query: molecule %s has unknown root type %s", mt.Name, mt.Root)
		}
		a.RootType = root
		a.Class = ClassMolecule
	} else {
		return nil, fmt.Errorf("query: FROM names unknown type %q", q.From)
	}

	hasAgg := false
	for _, p := range q.Projs {
		if p.Agg != "" {
			hasAgg = true
		}
	}
	if q.History != nil {
		if a.Class != ClassAtom {
			return nil, fmt.Errorf("query: HISTORY queries require an atom type in FROM")
		}
		a.Class = ClassHistory
		if err := resolveRef(q.History, a.AtomType); err != nil {
			return nil, err
		}
	} else if q.During != nil && !hasAgg {
		return nil, fmt.Errorf("query: DURING is only valid with SELECT HISTORY or temporal aggregates")
	}
	if hasAgg && a.Class != ClassAtom {
		return nil, fmt.Errorf("query: temporal aggregates require an atom type in FROM")
	}

	if q.SelectAll && a.Class == ClassAtom {
		return nil, fmt.Errorf("query: SELECT ALL requires a molecule type in FROM (got atom type %s)", q.From)
	}

	// Resolve projections. Molecule queries may project attributes of any
	// constituent type: the result is unnested, one row per combination of
	// constituents of the referenced non-root types.
	base := a.AtomType
	if a.Class == ClassMolecule {
		base = a.RootType
	}
	for i := range q.Projs {
		p := &q.Projs[i]
		if p.Count != "" {
			if a.Class != ClassMolecule {
				return nil, fmt.Errorf("query: COUNT(%s) requires a molecule type in FROM", p.Count)
			}
			if !moleculeHasType(a.MolType, p.Count) {
				return nil, fmt.Errorf("query: molecule %s has no constituent type %s", a.MolType.Name, p.Count)
			}
			continue
		}
		if a.Class == ClassMolecule && p.Attr.Type != "" && p.Attr.Type != base.Name {
			if !moleculeHasType(a.MolType, p.Attr.Type) {
				return nil, fmt.Errorf("query: molecule %s has no constituent type %s", a.MolType.Name, p.Attr.Type)
			}
			ct, ok := sch.AtomType(p.Attr.Type)
			if !ok {
				return nil, fmt.Errorf("query: unknown atom type %s", p.Attr.Type)
			}
			if _, ok := ct.Attr(p.Attr.Attr); !ok {
				return nil, fmt.Errorf("query: %s has no attribute %q", p.Attr.Type, p.Attr.Attr)
			}
			continue
		}
		if err := resolveRef(p.Attr, base); err != nil {
			return nil, err
		}
	}

	// Resolve WHERE references against the base type.
	if q.Where != nil {
		if err := resolveExpr(q.Where, base); err != nil {
			return nil, err
		}
	}

	// Resolve WHEN.
	if q.When != nil && !q.When.Lifespan {
		if err := resolveRef(&q.When.Attr, base); err != nil {
			return nil, err
		}
	}

	// HAVING qualifies molecules by constituent atoms.
	if q.Having != nil {
		if a.Class != ClassMolecule {
			return nil, fmt.Errorf("query: HAVING requires a molecule type in FROM")
		}
		if err := resolveHaving(q.Having, a.MolType, sch); err != nil {
			return nil, err
		}
	}

	// ORDER BY must name an output column.
	if q.OrderBy != "" {
		if q.SelectAll {
			return nil, fmt.Errorf("query: ORDER BY needs a projection list (SELECT ALL has no columns)")
		}
		if _, ok := orderColumn(a); !ok {
			return nil, fmt.Errorf("query: ORDER BY column %q is not in the projection list", q.OrderBy)
		}
	}
	a.Reads = readSet(q, a.Class, base)
	return a, nil
}

// readSet derives the statement's per-candidate read set from its resolved
// clauses. base is the candidates' atom type.
func readSet(q *Query, class QueryClass, base *schema.AtomType) *atom.ReadSet {
	rs := &atom.ReadSet{
		// A HISTORY() statement slices only to give WHERE a state; every
		// other class also needs Alive at the slice point.
		State:    class != ClassHistory || q.Where != nil,
		Lifespan: q.When != nil && q.When.Lifespan,
	}
	add := func(list *[]string, name string) {
		for _, have := range *list {
			if have == name {
				return
			}
		}
		*list = append(*list, name)
	}
	var whereRefs func(e *Expr)
	whereRefs = func(e *Expr) {
		switch {
		case e == nil:
		case e.Ref != nil:
			add(&rs.Attrs, e.Ref.Attr)
		default:
			whereRefs(e.Left)
			whereRefs(e.Right)
		}
	}
	whereRefs(q.Where)
	for _, p := range q.Projs {
		switch {
		case p.Count != "" || p.Attr.Type != base.Name:
			// Counts and constituent attributes come from the molecule.
		case p.Agg != "":
			add(&rs.Histories, p.Attr.Attr)
		default:
			add(&rs.Attrs, p.Attr.Attr)
		}
	}
	if q.History != nil {
		add(&rs.Histories, q.History.Attr)
	}
	if q.When != nil && !q.When.Lifespan {
		add(&rs.Histories, q.When.Attr.Attr)
	}
	return rs
}

// orderColumn resolves the ORDER BY name against the output columns,
// accepting either the full label or a bare attribute name.
func orderColumn(a *Analyzed) (int, bool) {
	q := a.Query
	if a.Class == ClassHistory {
		for i, c := range []string{"id", q.History.Attr, "valid_from", "valid_to"} {
			if q.OrderBy == c {
				return i, true
			}
		}
		return 0, false
	}
	for i, p := range q.Projs {
		if q.OrderBy == p.Label() {
			return i, true
		}
		if p.Attr != nil && p.Count == "" && p.Agg == "" && q.OrderBy == p.Attr.Attr {
			return i, true
		}
	}
	return 0, false
}

// resolveHaving checks HAVING references: each must be Type.attr where
// Type is a constituent of the molecule.
func resolveHaving(e *Expr, mt *schema.MoleculeType, sch *schema.Schema) error {
	if e == nil {
		return nil
	}
	if e.Ref != nil {
		if e.Ref.Type == "" {
			return fmt.Errorf("query: HAVING references must be qualified (Type.attr), got %q", e.Ref.Attr)
		}
		if !moleculeHasType(mt, e.Ref.Type) {
			return fmt.Errorf("query: molecule %s has no constituent type %s", mt.Name, e.Ref.Type)
		}
		t, ok := sch.AtomType(e.Ref.Type)
		if !ok {
			return fmt.Errorf("query: unknown atom type %s", e.Ref.Type)
		}
		if _, ok := t.Attr(e.Ref.Attr); !ok {
			return fmt.Errorf("query: %s has no attribute %q", e.Ref.Type, e.Ref.Attr)
		}
		return nil
	}
	if e.Lit != nil {
		return nil
	}
	if err := resolveHaving(e.Left, mt, sch); err != nil {
		return err
	}
	if e.Right != nil {
		return resolveHaving(e.Right, mt, sch)
	}
	return nil
}

func moleculeHasType(mt *schema.MoleculeType, name string) bool {
	if mt.Root == name {
		return true
	}
	for _, e := range mt.Edges {
		if e.From == name || e.To == name {
			return true
		}
	}
	return false
}

// resolveRef checks the reference against the base type and fills in the
// qualifier.
func resolveRef(r *AttrRef, base *schema.AtomType) error {
	if r.Type != "" && r.Type != base.Name {
		return fmt.Errorf("query: attribute %s does not belong to %s (only the FROM type's root attributes are addressable)", r, base.Name)
	}
	if _, ok := base.Attr(r.Attr); !ok {
		return fmt.Errorf("query: %s has no attribute %q", base.Name, r.Attr)
	}
	r.Type = base.Name
	return nil
}

func resolveExpr(e *Expr, base *schema.AtomType) error {
	if e == nil {
		return nil
	}
	if e.Ref != nil {
		return resolveRef(e.Ref, base)
	}
	if e.Lit != nil {
		return nil
	}
	if err := resolveExpr(e.Left, base); err != nil {
		return err
	}
	if e.Right != nil {
		return resolveExpr(e.Right, base)
	}
	return nil
}
