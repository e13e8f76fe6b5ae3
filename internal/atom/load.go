package atom

import (
	"fmt"

	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// reconcile aligns a decoded atom with the current schema: attributes
// added by schema evolution after the record was written get empty
// histories (they read as Null until first updated).
func (m *Manager) reconcile(a *Atom) *Atom {
	t, ok := m.schema.AtomType(a.Type)
	if !ok {
		return a
	}
	if len(a.Attrs) == len(t.Attrs) {
		return a
	}
	for _, at := range t.Attrs {
		if a.Attr(at.Name) == nil {
			a.Attrs = append(a.Attrs, AttrData{Name: at.Name, Set: at.IsRef() && at.Card == schema.Many})
		}
	}
	return a
}

// Load materializes the complete atom with its full history. For the tuple
// strategy this reconstructs histories from the snapshot chain. The result
// is full-fidelity: archived history is always merged back in (index
// rebuilds and molecule change points depend on seeing everything). Loads
// are not charged to any query's resources; accounted reads go through Read.
func (m *Manager) Load(id value.ID) (*Atom, error) {
	if m.opts.Strategy == StrategyTuple {
		rid, err := m.homeRID(id)
		if err != nil {
			return nil, err
		}
		return m.tupleLoad(rid)
	}
	a, _, _, err := m.loadHot(id)
	if err != nil {
		return nil, err
	}
	if err := m.arcLoadInto(a); err != nil {
		return nil, err
	}
	return a, nil
}

// loadHot materializes the complete hot-store atom (embedded/separated),
// reconciled against the schema but WITHOUT archived history: exactly the
// hot state the maintenance paths (vacuum, compaction pre-scans) need.
func (m *Manager) loadHot(id value.ID) (*Atom, storage.RID, SepHeader, error) {
	rid, err := m.homeRID(id)
	if err != nil {
		return nil, storage.NilRID, SepHeader{}, err
	}
	switch m.opts.Strategy {
	case StrategyEmbedded:
		m.met.fullLoads.Inc()
		data, err := m.heap.Fetch(rid)
		if err != nil {
			return nil, storage.NilRID, SepHeader{}, err
		}
		a, err := DecodeFull(data)
		if err != nil {
			return nil, storage.NilRID, SepHeader{}, err
		}
		return m.reconcile(a), rid, SepHeader{}, nil
	case StrategySeparated:
		m.met.fullLoads.Inc()
		a, hdr, err := m.loadSeparatedFull(rid)
		if err != nil {
			return nil, storage.NilRID, SepHeader{}, err
		}
		return m.reconcile(a), rid, hdr, nil
	default:
		return nil, storage.NilRID, SepHeader{}, fmt.Errorf("atom: loadHot unsupported for strategy %s", m.opts.Strategy)
	}
}

// tupleLoad reconstructs a full atom (with step-function histories) from
// the snapshot chain, archived prefix included.
func (m *Manager) tupleLoad(rid storage.RID) (*Atom, error) {
	snaps, err := m.tupleChain(rid)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("atom: empty snapshot chain")
	}
	if p := snaps[0].Arc; !p.IsZero() {
		arch, err := m.arcSnapChain(p)
		if err != nil {
			return nil, err
		}
		snaps = append(arch, snaps...)
	}
	t, ok := m.schema.AtomType(snaps[0].Type)
	if !ok {
		return nil, fmt.Errorf("atom: unknown type %q in snapshot", snaps[0].Type)
	}
	a := NewAtom(snaps[0].ID, t)
	// snaps is oldest-first. Each snapshot's values hold from its
	// ValidFrom until the next snapshot's ValidFrom.
	for i, s := range snaps {
		valid := temporal.Open(s.ValidFrom)
		if i+1 < len(snaps) {
			valid.To = snaps[i+1].ValidFrom
		}
		if valid.IsEmpty() {
			continue
		}
		if s.Deleted {
			a.Lifespan = a.Lifespan.SubtractInterval(temporal.Open(s.ValidFrom))
			continue
		}
		a.Lifespan = a.Lifespan.Union(temporal.NewElement(valid))
		for name, v := range s.Vals {
			if v.IsNull() {
				continue
			}
			ad := a.Attr(name)
			if ad == nil {
				continue
			}
			ad.Versions = append(ad.Versions, Version{Valid: valid, Trans: temporal.Open(s.TransFrom), Val: v})
		}
		for name, vs := range s.Sets {
			ad := a.Attr(name)
			if ad == nil {
				continue
			}
			for _, v := range vs {
				ad.Versions = append(ad.Versions, Version{Valid: valid, Trans: temporal.Open(s.TransFrom), Val: v})
			}
		}
		for k, ids := range s.BackRefs {
			for _, idv := range ids {
				a.BackRefs[k] = append(a.BackRefs[k], Version{Valid: valid, Trans: temporal.Open(s.TransFrom), Val: value.Ref(idv)})
			}
		}
	}
	return a, nil
}

// tupleChain returns the snapshot chain oldest-first.
func (m *Manager) tupleChain(rid storage.RID) ([]*Snapshot, error) {
	var chain []*Snapshot
	for rid.IsValid() {
		m.met.snapshotHops.Inc()
		data, err := m.heap.Fetch(rid)
		if err != nil {
			return nil, err
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return nil, err
		}
		chain = append(chain, snap)
		rid = snap.Prev
	}
	// Reverse to oldest-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	m.met.chainDepth.Record(uint64(len(chain)))
	return chain, nil
}
