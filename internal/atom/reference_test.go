package atom

import (
	"fmt"
	"sort"

	"tcodm/internal/schema"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// The reference reader: materialize everything, then filter. This is the
// read path as it was before Read visited records in place — whole atoms
// decoded into maps and slices by the Decode* functions, archived history
// always merged in, then stateFromAtom / HistoryAt / the snapshot-chain
// reconstruction applied to the result. It is kept as the executable
// statement of what Read must answer (reader_test.go checks the two against
// each other); nothing outside tests calls it.

// refState answers StateAt the old way.
func refState(m *Manager, id value.ID, vt, tt temporal.Instant) (*State, error) {
	if m.opts.Strategy == StrategyTuple {
		chain, err := refSnapshotChain(m, id)
		if err != nil {
			return nil, err
		}
		return m.refReconcileState(refTupleStateAt(chain, vt, tt)), nil
	}
	a, err := m.Load(id)
	if err != nil {
		return nil, err
	}
	return stateFromAtom(a, vt, tt), nil
}

// refHistory answers History the old way.
func refHistory(m *Manager, id value.ID, attr string, tt temporal.Instant) ([]Version, error) {
	if m.opts.Strategy == StrategyTuple {
		chain, err := refSnapshotChain(m, id)
		if err != nil {
			return nil, err
		}
		return refTupleHistory(chain, attr, tt), nil
	}
	a, err := m.Load(id)
	if err != nil {
		return nil, err
	}
	ad := a.Attr(attr)
	if ad == nil {
		return nil, fmt.Errorf("atom: %s has no attribute %q", a.Type, attr)
	}
	return ad.HistoryAt(effectiveTT(tt)), nil
}

// refLifespan answers Lifespan the old way: the full atom's header field
// (for the tuple strategy, reconstructed from the whole snapshot chain).
func refLifespan(m *Manager, id value.ID) (temporal.Element, error) {
	a, err := m.Load(id)
	if err != nil {
		return nil, err
	}
	return a.Lifespan, nil
}

// stateFromAtom filters a fully loaded atom down to one time point.
func stateFromAtom(a *Atom, vt, tt temporal.Instant) *State {
	s := &State{
		ID: a.ID, Type: a.Type,
		Alive: a.AliveAt(vt),
		Vals:  map[string]value.V{}, Sets: map[string][]value.V{}, BackRefs: map[string][]value.ID{},
	}
	for i := range a.Attrs {
		ad := &a.Attrs[i]
		if ad.Set {
			s.Sets[ad.Name] = sortVals(ad.SetAt(vt, tt))
			continue
		}
		s.Vals[ad.Name] = ad.ValueAt(vt, tt)
	}
	for k := range a.BackRefs {
		var ids []value.ID
		for _, v := range a.BackRefs[k] {
			if v.VisibleAt(vt, tt) {
				ids = append(ids, v.Val.AsID())
			}
		}
		if len(ids) > 0 {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			s.BackRefs[k] = ids
		}
	}
	return s
}

// refSnapshotChain materializes the whole snapshot chain oldest-first,
// archived prefix included.
func refSnapshotChain(m *Manager, id value.ID) ([]*Snapshot, error) {
	rid, err := m.homeRID(id)
	if err != nil {
		return nil, err
	}
	chain, err := m.tupleChain(rid)
	if err != nil || len(chain) == 0 {
		return chain, err
	}
	arch, err := m.arcSnapChain(chain[0].Arc)
	if err != nil {
		return nil, err
	}
	return append(arch, chain...), nil
}

// refTupleStateAt scans the materialized chain newest-first for the
// snapshot in force at (vt, tt).
func refTupleStateAt(chain []*Snapshot, vt, tt temporal.Instant) *State {
	ett := effectiveTT(tt)
	for i := len(chain) - 1; i >= 0; i-- {
		if s := chain[i]; s.TransFrom <= ett && s.ValidFrom <= vt {
			return stateFromSnapshot(s)
		}
	}
	// vt precedes the atom's first version: it does not exist yet.
	return &State{ID: chain[0].ID, Type: chain[0].Type, Alive: false,
		Vals: map[string]value.V{}, Sets: map[string][]value.V{}, BackRefs: map[string][]value.ID{}}
}

func stateFromSnapshot(s *Snapshot) *State {
	st := &State{
		ID: s.ID, Type: s.Type, Alive: !s.Deleted,
		Vals: map[string]value.V{}, Sets: map[string][]value.V{}, BackRefs: map[string][]value.ID{},
	}
	for k, v := range s.Vals {
		st.Vals[k] = v
	}
	for k, vs := range s.Sets {
		st.Sets[k] = sortVals(append([]value.V(nil), vs...))
	}
	for k, ids := range s.BackRefs {
		cp := append([]value.ID(nil), ids...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		st.BackRefs[k] = cp
	}
	return st
}

// refReconcileState fills in schema attributes a stored snapshot predates.
func (m *Manager) refReconcileState(st *State) *State {
	t, ok := m.schema.AtomType(st.Type)
	if !ok {
		return st
	}
	for _, at := range t.Attrs {
		if at.IsRef() && at.Card == schema.Many {
			if _, ok := st.Sets[at.Name]; !ok {
				st.Sets[at.Name] = nil
			}
			continue
		}
		if _, ok := st.Vals[at.Name]; !ok {
			st.Vals[at.Name] = value.Null
		}
	}
	return st
}

// refTupleHistory reconstructs the step-function history of one attribute
// from the materialized chain, as recorded at transaction time tt.
func refTupleHistory(snaps []*Snapshot, attr string, tt temporal.Instant) []Version {
	ett := effectiveTT(tt)
	var out []Version
	for i, s := range snaps {
		if s.TransFrom > ett || s.Deleted {
			continue
		}
		valid := temporal.Open(s.ValidFrom)
		for j := i + 1; j < len(snaps); j++ {
			if snaps[j].TransFrom <= ett {
				valid.To = snaps[j].ValidFrom
				break
			}
		}
		if valid.IsEmpty() {
			continue
		}
		if v, ok := s.Vals[attr]; ok && !v.IsNull() {
			// Coalesce with the previous version when the value repeats.
			if n := len(out); n > 0 && out[n-1].Val.Equal(v) && out[n-1].Valid.To == valid.From {
				out[n-1].Valid.To = valid.To
				continue
			}
			out = append(out, Version{Valid: valid, Trans: temporal.Open(s.TransFrom), Val: v})
		}
		if vs, ok := s.Sets[attr]; ok {
			for _, v := range vs {
				out = append(out, Version{Valid: valid, Trans: temporal.Open(s.TransFrom), Val: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Valid.From != out[j].Valid.From {
			return out[i].Valid.From < out[j].Valid.From
		}
		return out[i].Val.Compare(out[j].Val) < 0
	})
	return out
}
