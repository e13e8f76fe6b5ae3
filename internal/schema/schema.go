// Package schema defines the data-definition layer of the temporal
// complex-object model: atom types with scalar and reference attributes,
// and molecule types — rooted connected digraphs over atom types along
// reference attributes — from which complex objects are derived dynamically
// at query time.
//
// Following the MAD model, references are bidirectional: declaring a
// reference attribute on one atom type implicitly declares the inverse
// direction, and molecule types may traverse references in either
// direction.
package schema

import (
	"fmt"
	"regexp"
	"sort"

	"tcodm/internal/value"
)

// Cardinality constrains how many atoms a reference attribute may point to
// per valid-time instant.
type Cardinality uint8

const (
	// One: the reference holds at most one target atom at any instant.
	One Cardinality = iota
	// Many: the reference holds a set of target atoms.
	Many
)

// String returns "one" or "many".
func (c Cardinality) String() string {
	if c == Many {
		return "many"
	}
	return "one"
}

// Attribute describes one attribute of an atom type. Exactly one of the
// scalar form (Kind != KindNull, Target == "") and the reference form
// (Kind == value.KindID, Target != "") holds; IsRef distinguishes them.
type Attribute struct {
	Name string
	// Kind is the scalar domain, or value.KindID for references.
	Kind value.Kind
	// Target is the referenced atom type name (references only).
	Target string
	// Card is the reference cardinality (references only).
	Card Cardinality
	// Temporal marks the attribute as carrying a full valid-time history.
	// Non-temporal attributes keep only their latest value (they are
	// implicitly valid over the whole lifespan of the atom).
	Temporal bool
	// Required forbids Null as a current value.
	Required bool
}

// IsRef reports whether the attribute is a reference attribute.
func (a Attribute) IsRef() bool { return a.Target != "" }

// AtomType is the record type of atoms: a named list of attributes.
// Attribute order is the declaration order and is part of the physical
// record layout.
type AtomType struct {
	Name  string
	Attrs []Attribute

	byName map[string]int
}

// Attr returns the attribute with the given name, with ok=false if absent.
func (t *AtomType) Attr(name string) (Attribute, bool) {
	i, ok := t.byName[name]
	if !ok {
		return Attribute{}, false
	}
	return t.Attrs[i], true
}

// AttrIndex returns the positional index of the named attribute, or -1.
func (t *AtomType) AttrIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// AttrIndexBytes is AttrIndex for a name still in a record's bytes: the
// lookup converts nothing, so readers match stored names without allocating.
func (t *AtomType) AttrIndexBytes(name []byte) int {
	if i, ok := t.byName[string(name)]; ok {
		return i
	}
	return -1
}

// MoleculeEdge is one edge of a molecule type: traverse reference attribute
// Attr of atom type From, reaching atom type To. Reverse marks traversal
// against the declared direction (from the target type back to the owner of
// the reference attribute).
type MoleculeEdge struct {
	From    string
	Attr    string
	To      string
	Reverse bool
}

// MoleculeType defines a complex-object type: a root atom type plus edges
// describing which links to follow when materializing a molecule. The edge
// set must form a connected digraph reachable from the root. Edges may form
// cycles; materialization bounds recursion by visiting each atom once per
// molecule.
type MoleculeType struct {
	Name  string
	Root  string
	Edges []MoleculeEdge
}

// EdgesFrom returns the edges departing atom type name.
func (m *MoleculeType) EdgesFrom(name string) []MoleculeEdge {
	var out []MoleculeEdge
	for _, e := range m.Edges {
		if e.From == name {
			out = append(out, e)
		}
	}
	return out
}

// Schema is a complete catalog: atom types and molecule types. A Schema is
// immutable after Freeze; the engine swaps whole schemas on DDL.
type Schema struct {
	atomTypes     map[string]*AtomType
	moleculeTypes map[string]*MoleculeType
	frozen        bool
}

// New returns an empty, unfrozen schema.
func New() *Schema {
	return &Schema{
		atomTypes:     map[string]*AtomType{},
		moleculeTypes: map[string]*MoleculeType{},
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_]*$`)

// ValidName reports whether s is a legal schema object or attribute name.
func ValidName(s string) bool { return nameRE.MatchString(s) }

// AddAtomType validates and registers an atom type.
func (s *Schema) AddAtomType(t AtomType) error {
	if s.frozen {
		return fmt.Errorf("schema: frozen")
	}
	if !ValidName(t.Name) {
		return fmt.Errorf("schema: invalid atom type name %q", t.Name)
	}
	if _, dup := s.atomTypes[t.Name]; dup {
		return fmt.Errorf("schema: atom type %q already defined", t.Name)
	}
	if len(t.Attrs) == 0 {
		return fmt.Errorf("schema: atom type %q has no attributes", t.Name)
	}
	t.byName = make(map[string]int, len(t.Attrs))
	for i, a := range t.Attrs {
		if !ValidName(a.Name) {
			return fmt.Errorf("schema: %s: invalid attribute name %q", t.Name, a.Name)
		}
		if _, dup := t.byName[a.Name]; dup {
			return fmt.Errorf("schema: %s: duplicate attribute %q", t.Name, a.Name)
		}
		if a.IsRef() {
			if a.Kind != value.KindID {
				return fmt.Errorf("schema: %s.%s: reference attributes must have kind id, got %s", t.Name, a.Name, a.Kind)
			}
		} else {
			switch a.Kind {
			case value.KindBool, value.KindInt, value.KindFloat, value.KindString, value.KindInstant:
			case value.KindID:
				return fmt.Errorf("schema: %s.%s: kind id requires a reference target", t.Name, a.Name)
			default:
				return fmt.Errorf("schema: %s.%s: invalid attribute kind %s", t.Name, a.Name, a.Kind)
			}
		}
		t.byName[a.Name] = i
	}
	s.atomTypes[t.Name] = &t
	return nil
}

// AddAttribute appends an attribute to an existing atom type (schema
// evolution). Atoms stored before the evolution simply lack versions for
// the new attribute: they read as Null until first updated.
func (s *Schema) AddAttribute(typeName string, a Attribute) error {
	if s.frozen {
		return fmt.Errorf("schema: frozen")
	}
	t, ok := s.atomTypes[typeName]
	if !ok {
		return fmt.Errorf("schema: unknown atom type %q", typeName)
	}
	if !ValidName(a.Name) {
		return fmt.Errorf("schema: %s: invalid attribute name %q", typeName, a.Name)
	}
	if _, dup := t.byName[a.Name]; dup {
		return fmt.Errorf("schema: %s: duplicate attribute %q", typeName, a.Name)
	}
	if a.Required {
		return fmt.Errorf("schema: %s.%s: attributes added by evolution cannot be required (existing atoms would violate it)", typeName, a.Name)
	}
	if a.IsRef() {
		if a.Kind != value.KindID {
			return fmt.Errorf("schema: %s.%s: reference attributes must have kind id", typeName, a.Name)
		}
		if _, ok := s.atomTypes[a.Target]; !ok {
			return fmt.Errorf("schema: %s.%s: unknown target type %q", typeName, a.Name, a.Target)
		}
	} else {
		switch a.Kind {
		case value.KindBool, value.KindInt, value.KindFloat, value.KindString, value.KindInstant:
		default:
			return fmt.Errorf("schema: %s.%s: invalid attribute kind %s", typeName, a.Name, a.Kind)
		}
	}
	t.byName[a.Name] = len(t.Attrs)
	t.Attrs = append(t.Attrs, a)
	return nil
}

// AddMoleculeType validates and registers a molecule type. All referenced
// atom types and reference attributes must already exist; connectivity from
// the root is enforced.
func (s *Schema) AddMoleculeType(m MoleculeType) error {
	if s.frozen {
		return fmt.Errorf("schema: frozen")
	}
	if !ValidName(m.Name) {
		return fmt.Errorf("schema: invalid molecule type name %q", m.Name)
	}
	if _, dup := s.moleculeTypes[m.Name]; dup {
		return fmt.Errorf("schema: molecule type %q already defined", m.Name)
	}
	if _, ok := s.atomTypes[m.Root]; !ok {
		return fmt.Errorf("schema: molecule %q: unknown root atom type %q", m.Name, m.Root)
	}
	for i, e := range m.Edges {
		fromT, ok := s.atomTypes[e.From]
		if !ok {
			return fmt.Errorf("schema: molecule %q edge %d: unknown atom type %q", m.Name, i, e.From)
		}
		toT, ok := s.atomTypes[e.To]
		if !ok {
			return fmt.Errorf("schema: molecule %q edge %d: unknown atom type %q", m.Name, i, e.To)
		}
		// Forward edges traverse a reference declared on From targeting To;
		// reverse edges traverse a reference declared on To targeting From.
		owner, target := fromT, toT
		if e.Reverse {
			owner, target = toT, fromT
		}
		attr, ok := owner.Attr(e.Attr)
		if !ok {
			return fmt.Errorf("schema: molecule %q edge %d: atom type %q has no attribute %q", m.Name, i, owner.Name, e.Attr)
		}
		if !attr.IsRef() {
			return fmt.Errorf("schema: molecule %q edge %d: attribute %s.%s is not a reference", m.Name, i, owner.Name, e.Attr)
		}
		if attr.Target != target.Name {
			return fmt.Errorf("schema: molecule %q edge %d: %s.%s targets %q, not %q", m.Name, i, owner.Name, e.Attr, attr.Target, target.Name)
		}
	}
	if err := checkConnected(&m); err != nil {
		return fmt.Errorf("schema: molecule %q: %w", m.Name, err)
	}
	s.moleculeTypes[m.Name] = &m
	return nil
}

// checkConnected verifies every edge endpoint is reachable from the root
// along the edge digraph.
func checkConnected(m *MoleculeType) error {
	reached := map[string]bool{m.Root: true}
	for changed := true; changed; {
		changed = false
		for _, e := range m.Edges {
			if reached[e.From] && !reached[e.To] {
				reached[e.To] = true
				changed = true
			}
		}
	}
	for _, e := range m.Edges {
		if !reached[e.From] {
			return fmt.Errorf("atom type %q not reachable from root %q", e.From, m.Root)
		}
	}
	return nil
}

// Freeze marks the schema immutable.
func (s *Schema) Freeze() { s.frozen = true }

// AtomType returns the named atom type, with ok=false if absent.
func (s *Schema) AtomType(name string) (*AtomType, bool) {
	t, ok := s.atomTypes[name]
	return t, ok
}

// AtomTypeBytes is AtomType for a name still in a record's bytes (no
// allocation).
func (s *Schema) AtomTypeBytes(name []byte) (*AtomType, bool) {
	t, ok := s.atomTypes[string(name)]
	return t, ok
}

// MoleculeType returns the named molecule type, with ok=false if absent.
func (s *Schema) MoleculeType(name string) (*MoleculeType, bool) {
	m, ok := s.moleculeTypes[name]
	return m, ok
}

// AtomTypeNames returns the sorted names of all atom types.
func (s *Schema) AtomTypeNames() []string {
	names := make([]string, 0, len(s.atomTypes))
	for n := range s.atomTypes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MoleculeTypeNames returns the sorted names of all molecule types.
func (s *Schema) MoleculeTypeNames() []string {
	names := make([]string, 0, len(s.moleculeTypes))
	for n := range s.moleculeTypes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone returns an unfrozen deep copy (for DDL: copy, modify, freeze, swap).
func (s *Schema) Clone() *Schema {
	out := New()
	for _, name := range s.AtomTypeNames() {
		t := s.atomTypes[name]
		ct := AtomType{Name: t.Name, Attrs: append([]Attribute(nil), t.Attrs...)}
		ct.byName = make(map[string]int, len(ct.Attrs))
		for i, a := range ct.Attrs {
			ct.byName[a.Name] = i
		}
		out.atomTypes[name] = &ct
	}
	for _, name := range s.MoleculeTypeNames() {
		m := s.moleculeTypes[name]
		cm := MoleculeType{Name: m.Name, Root: m.Root, Edges: append([]MoleculeEdge(nil), m.Edges...)}
		out.moleculeTypes[name] = &cm
	}
	return out
}
