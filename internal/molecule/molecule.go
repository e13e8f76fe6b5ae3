// Package molecule implements dynamic complex-object derivation: a
// molecule is the connected set of atoms reached from a root atom by
// following the reference edges of a molecule type, materialized
// time-consistently — every atom and link is evaluated at the same
// (valid time, transaction time) point, so the result is the complex
// object as it existed at that moment.
package molecule

import (
	"fmt"
	"sort"

	"tcodm/internal/atom"
	"tcodm/internal/obs"
	"tcodm/internal/schema"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Molecule is one materialized complex object.
type Molecule struct {
	Type *schema.MoleculeType
	Root value.ID
	// VT and TT are the time point the molecule was sliced at.
	VT, TT temporal.Instant
	// Atoms maps every constituent atom to its state at (VT, TT).
	Atoms map[value.ID]*atom.State
	// Children records the materialized edges: for each parent atom and
	// edge (by index into Type.Edges), the child atom IDs reached.
	Children map[value.ID]map[int][]value.ID
}

// Size returns the number of constituent atoms.
func (m *Molecule) Size() int { return len(m.Atoms) }

// AtomsOfType returns the constituent atoms of one atom type, ordered by ID.
func (m *Molecule) AtomsOfType(name string) []*atom.State {
	var out []*atom.State
	for _, st := range m.Atoms {
		if st.Type == name {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ChildrenOf returns the atoms reached from parent over edge edgeIdx.
func (m *Molecule) ChildrenOf(parent value.ID, edgeIdx int) []value.ID {
	return m.Children[parent][edgeIdx]
}

// Builder materializes molecules against an atom manager.
type Builder struct {
	mgr *atom.Manager
	// MaxAtoms bounds a single molecule's size as a runaway guard.
	MaxAtoms int
}

// NewBuilder returns a builder over mgr.
func NewBuilder(mgr *atom.Manager) *Builder {
	return &Builder{mgr: mgr, MaxAtoms: 100_000}
}

// Materialize derives the molecule of type mt rooted at root, sliced at
// (vt, tt). Atoms not alive at vt are excluded (and not traversed
// through); cycles are handled by visiting each atom once. A dead or
// missing root yields a molecule with no atoms. Every atom state read
// during the BFS charges pages and chain steps into acc (nil: uncharged).
func (b *Builder) Materialize(mt *schema.MoleculeType, root value.ID, vt, tt temporal.Instant, acc *obs.Resources) (*Molecule, error) {
	mol := &Molecule{
		Type: mt, Root: root, VT: vt, TT: tt,
		Atoms:    map[value.ID]*atom.State{},
		Children: map[value.ID]map[int][]value.ID{},
	}
	rootState, err := b.mgr.StateAtAcc(root, vt, tt, acc)
	if err != nil {
		return nil, err
	}
	if rootState.Type != mt.Root {
		return nil, fmt.Errorf("molecule: root atom %v has type %s, molecule %s wants %s",
			root, rootState.Type, mt.Name, mt.Root)
	}
	if !rootState.Alive {
		return mol, nil
	}
	mol.Atoms[root] = rootState
	queue := []value.ID{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		st := mol.Atoms[id]
		for ei, e := range mt.Edges {
			if e.From != st.Type {
				continue
			}
			targets, err := b.edgeTargets(st, e)
			if err != nil {
				return nil, err
			}
			for _, tid := range targets {
				if _, seen := mol.Atoms[tid]; seen {
					addChild(mol, id, ei, tid)
					continue
				}
				tst, err := b.mgr.StateAtAcc(tid, vt, tt, acc)
				if err != nil {
					return nil, fmt.Errorf("molecule: dangling reference %s edge %d -> %v: %w", mt.Name, ei, tid, err)
				}
				if !tst.Alive || tst.Type != e.To {
					continue
				}
				if len(mol.Atoms) >= b.MaxAtoms {
					return nil, fmt.Errorf("molecule: %s exceeded %d atoms", mt.Name, b.MaxAtoms)
				}
				mol.Atoms[tid] = tst
				addChild(mol, id, ei, tid)
				queue = append(queue, tid)
			}
		}
	}
	return mol, nil
}

func addChild(mol *Molecule, parent value.ID, edgeIdx int, child value.ID) {
	if mol.Children[parent] == nil {
		mol.Children[parent] = map[int][]value.ID{}
	}
	mol.Children[parent][edgeIdx] = append(mol.Children[parent][edgeIdx], child)
}

// edgeTargets evaluates one edge from an atom's state: forward edges read
// the reference attribute; reverse edges read the back-references
// maintained by the atom layer (the MAD model's bidirectional links).
func (b *Builder) edgeTargets(st *atom.State, e schema.MoleculeEdge) ([]value.ID, error) {
	if e.Reverse {
		return st.BackRefs[e.To+"."+e.Attr], nil
	}
	if ids, ok := st.Sets[e.Attr]; ok {
		out := make([]value.ID, 0, len(ids))
		for _, v := range ids {
			out = append(out, v.AsID())
		}
		return out, nil
	}
	v, ok := st.Vals[e.Attr]
	if !ok {
		return nil, fmt.Errorf("molecule: atom type %s has no attribute %q", st.Type, e.Attr)
	}
	if v.IsNull() {
		return nil, nil
	}
	return []value.ID{v.AsID()}, nil
}

// ChangePoints returns the valid-time instants within window at which the
// molecule rooted at root may change shape or content: the version and
// lifespan boundaries of every constituent atom, closed transitively (atoms
// that join the molecule mid-window contribute their boundaries too).
func (b *Builder) ChangePoints(mt *schema.MoleculeType, root value.ID, window temporal.Interval, tt temporal.Instant) ([]temporal.Instant, error) {
	points := map[temporal.Instant]bool{window.From: true}
	processed := map[value.ID]bool{}

	// Iterate to a fixpoint: materialize at each known point, add the
	// boundaries of every newly seen atom.
	for {
		ordered := sortedInstants(points)
		grew := false
		for _, p := range ordered {
			mol, err := b.Materialize(mt, root, p, tt, nil)
			if err != nil {
				return nil, err
			}
			for id := range mol.Atoms {
				if processed[id] {
					continue
				}
				processed[id] = true
				grew = true
				bounds, err := b.atomBoundaries(id, tt)
				if err != nil {
					return nil, err
				}
				for _, t := range bounds {
					if window.Contains(t) {
						points[t] = true
					}
				}
			}
		}
		if !grew {
			break
		}
	}
	return sortedInstants(points), nil
}

// atomBoundaries lists the instants where an atom's recorded state changes.
func (b *Builder) atomBoundaries(id value.ID, tt temporal.Instant) ([]temporal.Instant, error) {
	a, err := b.mgr.Load(id)
	if err != nil {
		return nil, err
	}
	var out []temporal.Instant
	add := func(t temporal.Instant) {
		if t != temporal.Beginning && t != temporal.Forever {
			out = append(out, t)
		}
	}
	for _, iv := range a.Lifespan {
		add(iv.From)
		add(iv.To)
	}
	ett := tt
	if ett == atom.Now {
		ett = temporal.Forever - 1
	}
	for _, ad := range a.Attrs {
		for _, v := range ad.Versions {
			if !v.Trans.Contains(ett) {
				continue
			}
			add(v.Valid.From)
			add(v.Valid.To)
		}
	}
	for _, vs := range a.BackRefs {
		for _, v := range vs {
			if !v.Trans.Contains(ett) {
				continue
			}
			add(v.Valid.From)
			add(v.Valid.To)
		}
	}
	return out, nil
}

func sortedInstants(set map[temporal.Instant]bool) []temporal.Instant {
	out := make([]temporal.Instant, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HistoryStep is one interval of constancy in a molecule's history.
type HistoryStep struct {
	During temporal.Interval
	Mol    *Molecule
}

// History materializes the molecule at every change point within window,
// producing its step-wise history: a sequence of (interval, molecule)
// pairs covering the window.
func (b *Builder) History(mt *schema.MoleculeType, root value.ID, window temporal.Interval, tt temporal.Instant) ([]HistoryStep, error) {
	points, err := b.ChangePoints(mt, root, window, tt)
	if err != nil {
		return nil, err
	}
	var steps []HistoryStep
	for i, p := range points {
		end := window.To
		if i+1 < len(points) {
			end = points[i+1]
		}
		if p >= end {
			continue
		}
		mol, err := b.Materialize(mt, root, p, tt, nil)
		if err != nil {
			return nil, err
		}
		steps = append(steps, HistoryStep{During: temporal.NewInterval(p, end), Mol: mol})
	}
	return steps, nil
}
