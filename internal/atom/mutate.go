package atom

import (
	"fmt"

	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// UpdateAttr records a new value for a plain (scalar or One-reference)
// attribute over the valid interval iv at transaction time tt. Use an
// open-ended interval (temporal.Open(from)) for the common "from now on"
// update; bounded intervals express retroactive or proactive corrections.
func (m *Manager) UpdateAttr(id value.ID, attr string, v value.V, iv temporal.Interval, tt temporal.Instant) error {
	t, at, err := m.resolveAttr(id, attr)
	if err != nil {
		return err
	}
	if at.IsRef() && at.Card == schema.Many {
		return fmt.Errorf("atom: %s.%s is a many-reference; use AddRef/RemoveRef", t.Name, attr)
	}
	if err := checkKind(*at, v); err != nil {
		return err
	}
	if at.Required && v.IsNull() {
		return fmt.Errorf("atom: required attribute %s.%s cannot be set to null", t.Name, attr)
	}

	// Track reference retargeting so back-references stay consistent.
	var oldTargets []refSpan
	apply := func(a *Atom) ([]Version, error) {
		ad := a.Attr(attr)
		if at.IsRef() {
			for _, old := range ad.Versions {
				if old.Live() && old.Valid.Overlaps(iv) && !old.Val.IsNull() {
					oldTargets = append(oldTargets, refSpan{target: old.Val.AsID(), span: old.Valid.Intersect(iv)})
				}
			}
		}
		return ad.spliceVersion(iv, v, tt)
	}
	if err := m.mutate(id, iv, apply, tt); err != nil {
		return err
	}
	if m.timeIdx != nil {
		if err := m.idxPut(m.timeIdx, timeKey(t.Name, attr, iv.From, id), uint64(id)); err != nil {
			return err
		}
	}
	if err := m.noteValue(t.Name, attr, v, id); err != nil {
		return err
	}
	if at.IsRef() {
		for _, old := range oldTargets {
			if err := m.trimBackRefOn(old.target, t.Name, attr, id, old.span, tt); err != nil {
				return err
			}
		}
		if !v.IsNull() {
			if err := m.addBackRefTo(v.AsID(), t.Name, attr, id, iv, tt); err != nil {
				return err
			}
		}
	}
	return nil
}

type refSpan struct {
	target value.ID
	span   temporal.Interval
}

// AddRef attaches target to the Many-reference attr of atom id over iv.
func (m *Manager) AddRef(id value.ID, attr string, target value.ID, iv temporal.Interval, tt temporal.Instant) error {
	t, at, err := m.resolveAttr(id, attr)
	if err != nil {
		return err
	}
	if !at.IsRef() || at.Card != schema.Many {
		return fmt.Errorf("atom: %s.%s is not a many-reference", t.Name, attr)
	}
	if err := m.mutate(id, iv, func(a *Atom) ([]Version, error) {
		return a.Attr(attr).addSetMember(iv, value.Ref(target), tt)
	}, tt); err != nil {
		return err
	}
	if m.timeIdx != nil {
		if err := m.idxPut(m.timeIdx, timeKey(t.Name, attr, iv.From, id), uint64(id)); err != nil {
			return err
		}
	}
	return m.addBackRefTo(target, t.Name, attr, id, iv, tt)
}

// RemoveRef detaches target from the Many-reference attr of atom id over iv.
func (m *Manager) RemoveRef(id value.ID, attr string, target value.ID, iv temporal.Interval, tt temporal.Instant) error {
	t, at, err := m.resolveAttr(id, attr)
	if err != nil {
		return err
	}
	if !at.IsRef() || at.Card != schema.Many {
		return fmt.Errorf("atom: %s.%s is not a many-reference", t.Name, attr)
	}
	if err := m.mutate(id, iv, func(a *Atom) ([]Version, error) {
		return a.Attr(attr).removeSetMember(iv, value.Ref(target), tt)
	}, tt); err != nil {
		return err
	}
	return m.trimBackRefOn(target, t.Name, attr, id, iv, tt)
}

// Delete ends the atom's existence from valid time `from` on (a valid-time
// deletion: history before `from` remains queryable).
func (m *Manager) Delete(id value.ID, from, tt temporal.Instant) error {
	if m.opts.Strategy == StrategyTuple {
		return m.tupleDelete(id, from, tt)
	}
	return m.mutate(id, temporal.Open(from), func(a *Atom) ([]Version, error) {
		a.Lifespan = a.Lifespan.SubtractInterval(temporal.Open(from))
		return nil, nil
	}, tt)
}

// Revive resumes the atom's existence from valid time `from` on (the
// lifespan becomes a multi-interval temporal element when the atom was
// deleted earlier). Attribute histories are untouched: open-ended versions
// become visible again over the revived span.
func (m *Manager) Revive(id value.ID, from, tt temporal.Instant) error {
	if m.opts.Strategy == StrategyTuple {
		return m.tupleRevive(id, from, tt)
	}
	return m.mutate(id, temporal.Open(from), func(a *Atom) ([]Version, error) {
		a.Lifespan = a.Lifespan.Union(temporal.NewElement(temporal.Open(from)))
		return nil, nil
	}, tt)
}

// resolveAttr fetches the schema type and attribute for an atom.
func (m *Manager) resolveAttr(id value.ID, attr string) (*schema.AtomType, *schema.Attribute, error) {
	typeName, err := m.typeOf(id)
	if err != nil {
		return nil, nil, err
	}
	t, ok := m.schema.AtomType(typeName)
	if !ok {
		return nil, nil, fmt.Errorf("atom: stored atom %v has unknown type %q", id, typeName)
	}
	at, ok := t.Attr(attr)
	if !ok {
		return nil, nil, fmt.Errorf("atom: %s has no attribute %q", typeName, attr)
	}
	return t, &at, nil
}

// typeOf reads the atom's type name from its home record's head, in place.
func (m *Manager) typeOf(id value.ID) (string, error) {
	rid, err := m.homeRID(id)
	if err != nil {
		return "", err
	}
	var h head
	err = m.heap.View(rid, nil, func(data []byte) (err error) {
		var ok bool
		if h, ok, err = readHead(data); err == nil && !ok {
			err = fmt.Errorf("atom: record of atom %v has unknown kind %#x", id, h.kind)
		}
		return err
	})
	return h.typ, err
}

// mutate loads the atom appropriately for the strategy, applies the
// in-memory change, and persists it. span is the valid interval the change
// touches; strategies use it to pick their fast path (separated) or reject
// inexpressible changes (tuple).
func (m *Manager) mutate(id value.ID, span temporal.Interval, apply func(*Atom) ([]Version, error), tt temporal.Instant) error {
	switch m.opts.Strategy {
	case StrategyEmbedded:
		return m.embeddedMutate(id, apply)
	case StrategySeparated:
		return m.separatedMutate(id, span, apply, tt)
	case StrategyTuple:
		return m.tupleMutate(id, span, apply, tt)
	default:
		return fmt.Errorf("atom: unknown strategy %d", m.opts.Strategy)
	}
}

// --- Embedded strategy ----------------------------------------------------

func (m *Manager) embeddedMutate(id value.ID, apply func(*Atom) ([]Version, error)) error {
	rid, err := m.homeRID(id)
	if err != nil {
		return err
	}
	data, err := m.heap.Fetch(rid)
	if err != nil {
		return err
	}
	a, err := DecodeFull(data)
	if err != nil {
		return err
	}
	a = m.reconcile(a)
	if _, err := apply(a); err != nil {
		return err
	}
	return m.heap.Update(rid, EncodeFull(a))
}

// --- Separated strategy -----------------------------------------------------

// separatedMutate applies a change under the separated mapping. When the
// change starts at or after the watermark it can only touch current-shaped
// versions, so it runs against the current record alone (the fast path);
// otherwise the full history is materialized, re-split, and rewritten.
func (m *Manager) separatedMutate(id value.ID, span temporal.Interval, apply func(*Atom) ([]Version, error), tt temporal.Instant) error {
	rid, err := m.homeRID(id)
	if err != nil {
		return err
	}
	data, err := m.heap.Fetch(rid)
	if err != nil {
		return err
	}
	cur, hdr, err := DecodeCurrent(data)
	if err != nil {
		return err
	}
	cur = m.reconcile(cur)
	if span.From < hdr.Watermark {
		return m.separatedMutateFull(id, rid, apply, tt)
	}
	// Fast path: apply against the current record. Versions the change
	// displaces that are no longer current-shaped migrate to history. The
	// kept versions are filtered in place: cur was decoded by this call and
	// migrate holds copies, so no one else sees the slices.
	if _, err := apply(cur); err != nil {
		return err
	}
	var migrate []HistoryEntry
	for i := range cur.Attrs {
		ad := &cur.Attrs[i]
		keep := ad.Versions[:0]
		for _, v := range ad.Versions {
			if v.currentShaped() {
				keep = append(keep, v)
				continue
			}
			migrate = append(migrate, HistoryEntry{Attr: ad.Name, Ver: v})
			if v.Live() && v.Valid.To != temporal.Forever && v.Valid.To > hdr.Watermark {
				hdr.Watermark = v.Valid.To
			}
		}
		ad.Versions = keep
	}
	for k, vs := range cur.BackRefs {
		keep := vs[:0]
		for _, v := range vs {
			if v.currentShaped() {
				keep = append(keep, v)
				continue
			}
			migrate = append(migrate, HistoryEntry{Attr: k, BackRef: true, Ver: v})
			if v.Live() && v.Valid.To != temporal.Forever && v.Valid.To > hdr.Watermark {
				hdr.Watermark = v.Valid.To
			}
		}
		if len(keep) == 0 {
			delete(cur.BackRefs, k)
		} else {
			cur.BackRefs[k] = keep
		}
	}
	if len(migrate) > 0 {
		newHdr, err := m.appendHistory(hdr, migrate)
		if err != nil {
			return err
		}
		hdr = newHdr
	}
	return m.heap.Update(rid, EncodeCurrent(cur, hdr))
}

// separatedMutateFull handles retroactive changes: materialize everything,
// apply, then rebuild the current record and the whole history chain.
func (m *Manager) separatedMutateFull(id value.ID, rid storage.RID, apply func(*Atom) ([]Version, error), tt temporal.Instant) error {
	m.met.fullLoads.Inc()
	a, hdr, err := m.loadSeparatedFull(rid)
	if err != nil {
		return err
	}
	a = m.reconcile(a)
	if _, err := apply(a); err != nil {
		return err
	}
	return m.separatedRewrite(rid, a, hdr.Head)
}

// separatedRewrite persists a fully-materialized atom under the separated
// mapping: re-split into current-shaped versions and history entries, free
// the old chain rooted at oldHead, write a fresh one in segment-sized
// pieces, and update the current record. Shared by retroactive mutations
// and the archival cut-over.
func (m *Manager) separatedRewrite(rid storage.RID, a *Atom, oldHead storage.RID) error {
	var hist []HistoryEntry
	watermark := temporal.Beginning
	for i := range a.Attrs {
		ad := &a.Attrs[i]
		var keep []Version
		for _, v := range ad.Versions {
			if v.currentShaped() {
				keep = append(keep, v)
				continue
			}
			hist = append(hist, HistoryEntry{Attr: ad.Name, Ver: v})
			if v.Live() && v.Valid.To != temporal.Forever && v.Valid.To > watermark {
				watermark = v.Valid.To
			}
		}
		ad.Versions = keep
	}
	for k, vs := range a.BackRefs {
		var keep []Version
		for _, v := range vs {
			if v.currentShaped() {
				keep = append(keep, v)
				continue
			}
			hist = append(hist, HistoryEntry{Attr: k, BackRef: true, Ver: v})
			if v.Live() && v.Valid.To != temporal.Forever && v.Valid.To > watermark {
				watermark = v.Valid.To
			}
		}
		if len(keep) == 0 {
			delete(a.BackRefs, k)
		} else {
			a.BackRefs[k] = keep
		}
	}
	// Free the old chain, then write a fresh one in segment-sized pieces.
	for seg := oldHead; seg.IsValid(); {
		data, err := m.heap.Fetch(seg)
		if err != nil {
			return err
		}
		prev, _, err := DecodeSegment(data)
		if err != nil {
			return err
		}
		if err := m.heap.Delete(seg); err != nil {
			return err
		}
		seg = prev
	}
	newHdr := SepHeader{Head: storage.NilRID, Watermark: watermark}
	for off := 0; off < len(hist); off += m.opts.SegmentCap {
		end := off + m.opts.SegmentCap
		if end > len(hist) {
			end = len(hist)
		}
		segRID, err := m.heap.Insert(EncodeSegment(newHdr.Head, hist[off:end]))
		if err != nil {
			return err
		}
		newHdr.Head = segRID
		newHdr.HeadCount = uint32(end - off)
	}
	return m.heap.Update(rid, EncodeCurrent(a, newHdr))
}

// appendHistory archives entries onto the chain, filling the head segment
// before starting a new one.
func (m *Manager) appendHistory(hdr SepHeader, entries []HistoryEntry) (SepHeader, error) {
	if hdr.Head.IsValid() && int(hdr.HeadCount)+len(entries) <= m.opts.SegmentCap {
		data, err := m.heap.Fetch(hdr.Head)
		if err != nil {
			return hdr, err
		}
		prev, existing, err := DecodeSegment(data)
		if err != nil {
			return hdr, err
		}
		existing = append(existing, entries...)
		if err := m.heap.Update(hdr.Head, EncodeSegment(prev, existing)); err != nil {
			return hdr, err
		}
		hdr.HeadCount = uint32(len(existing))
		return hdr, nil
	}
	rid, err := m.heap.Insert(EncodeSegment(hdr.Head, entries))
	if err != nil {
		return hdr, err
	}
	hdr.Head = rid
	hdr.HeadCount = uint32(len(entries))
	return hdr, nil
}

// loadSeparatedFull materializes the complete atom: current record plus the
// whole history chain.
func (m *Manager) loadSeparatedFull(rid storage.RID) (*Atom, SepHeader, error) {
	data, err := m.heap.Fetch(rid)
	if err != nil {
		return nil, SepHeader{}, err
	}
	a, hdr, err := DecodeCurrent(data)
	if err != nil {
		return nil, SepHeader{}, err
	}
	depth := uint64(0)
	seg := hdr.Head
	for seg.IsValid() {
		m.met.segmentReads.Inc()
		depth++
		data, err := m.heap.Fetch(seg)
		if err != nil {
			return nil, SepHeader{}, err
		}
		prev, entries, err := DecodeSegment(data)
		if err != nil {
			return nil, SepHeader{}, err
		}
		for _, e := range entries {
			if e.BackRef {
				a.BackRefs[e.Attr] = append(a.BackRefs[e.Attr], e.Ver)
				continue
			}
			ad := a.Attr(e.Attr)
			if ad == nil {
				return nil, SepHeader{}, fmt.Errorf("atom: history entry for unknown attribute %q", e.Attr)
			}
			ad.Versions = append(ad.Versions, e.Ver)
		}
		seg = prev
	}
	m.met.chainDepth.Record(depth)
	return a, hdr, nil
}

// --- Tuple strategy --------------------------------------------------------

// tupleMutate applies a change under tuple versioning: materialize the
// newest state, apply, and chain a complete new snapshot. Only forward,
// open-ended changes are expressible — the strategy's defining limitation.
func (m *Manager) tupleMutate(id value.ID, span temporal.Interval, apply func(*Atom) ([]Version, error), tt temporal.Instant) error {
	rid, err := m.homeRID(id)
	if err != nil {
		return err
	}
	data, err := m.heap.Fetch(rid)
	if err != nil {
		return err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	if snap.Deleted {
		return fmt.Errorf("atom: %v is deleted", id)
	}
	if span.To != temporal.Forever || span.From < snap.ValidFrom {
		return ErrStrategy
	}
	t, ok := m.schema.AtomType(snap.Type)
	if !ok {
		return fmt.Errorf("atom: stored atom %v has unknown type %q", id, snap.Type)
	}
	// Rehydrate the newest state as a transient atom so the shared splice
	// logic applies, then project the post-change state into a snapshot.
	a := snapshotToAtom(snap, t)
	if _, err := apply(a); err != nil {
		return err
	}
	next := atomToSnapshot(a, span.From, tt)
	next.Prev = rid
	newRID, err := m.heap.Insert(EncodeSnapshot(next))
	if err != nil {
		return err
	}
	if err := m.idxPut(m.primary, primaryKey(id), newRID.Pack()); err != nil {
		return err
	}
	return m.idxPut(m.typeIdx, typeKey(snap.Type, id), newRID.Pack())
}

func (m *Manager) tupleDelete(id value.ID, from, tt temporal.Instant) error {
	rid, err := m.homeRID(id)
	if err != nil {
		return err
	}
	data, err := m.heap.Fetch(rid)
	if err != nil {
		return err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	next := *snap
	next.ValidFrom = from
	next.TransFrom = tt
	next.Deleted = true
	next.Prev = rid
	newRID, err := m.heap.Insert(EncodeSnapshot(&next))
	if err != nil {
		return err
	}
	if err := m.idxPut(m.primary, primaryKey(id), newRID.Pack()); err != nil {
		return err
	}
	return m.idxPut(m.typeIdx, typeKey(snap.Type, id), newRID.Pack())
}

func (m *Manager) tupleRevive(id value.ID, from, tt temporal.Instant) error {
	rid, err := m.homeRID(id)
	if err != nil {
		return err
	}
	data, err := m.heap.Fetch(rid)
	if err != nil {
		return err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	if !snap.Deleted {
		return fmt.Errorf("atom: %v is not deleted", id)
	}
	next := *snap
	next.ValidFrom = from
	next.TransFrom = tt
	next.Deleted = false
	next.Prev = rid
	newRID, err := m.heap.Insert(EncodeSnapshot(&next))
	if err != nil {
		return err
	}
	if err := m.idxPut(m.primary, primaryKey(id), newRID.Pack()); err != nil {
		return err
	}
	return m.idxPut(m.typeIdx, typeKey(snap.Type, id), newRID.Pack())
}

// snapshotToAtom rehydrates a snapshot into a transient atom whose versions
// all start at the snapshot's ValidFrom.
func snapshotToAtom(s *Snapshot, t *schema.AtomType) *Atom {
	a := NewAtom(s.ID, t)
	life := temporal.Open(s.ValidFrom)
	if s.Deleted {
		a.Lifespan = nil
	} else {
		a.Lifespan = temporal.NewElement(life)
	}
	for i := range a.Attrs {
		ad := &a.Attrs[i]
		if ad.Set {
			for _, v := range s.Sets[ad.Name] {
				ad.Versions = append(ad.Versions, Version{Valid: life, Trans: temporal.Open(s.TransFrom), Val: v})
			}
			continue
		}
		if v, ok := s.Vals[ad.Name]; ok && !v.IsNull() {
			ad.Versions = append(ad.Versions, Version{Valid: life, Trans: temporal.Open(s.TransFrom), Val: v})
		}
	}
	for k, ids := range s.BackRefs {
		for _, id := range ids {
			a.BackRefs[k] = append(a.BackRefs[k], Version{Valid: life, Trans: temporal.Open(s.TransFrom), Val: value.Ref(id)})
		}
	}
	return a
}

// --- Back-reference maintenance --------------------------------------------

func (m *Manager) addBackRefTo(target value.ID, sourceType, attr string, source value.ID, iv temporal.Interval, tt temporal.Instant) error {
	return m.mutate(target, iv, func(a *Atom) ([]Version, error) {
		a.addBackRef(sourceType, attr, source, iv, tt)
		return nil, nil
	}, tt)
}

func (m *Manager) trimBackRefOn(target value.ID, sourceType, attr string, source value.ID, iv temporal.Interval, tt temporal.Instant) error {
	return m.mutate(target, iv, func(a *Atom) ([]Version, error) {
		a.trimBackRef(sourceType, attr, source, iv, tt)
		return nil, nil
	}, tt)
}
