// Package atom implements the temporal atom layer: atoms (typed records
// with system surrogates) whose attributes carry bitemporal version
// histories, realized on the storage substrate under three alternative
// physical mappings — the design space the paper's evaluation explores:
//
//   - StrategyEmbedded: an atom and its complete history live in one heap
//     record; every update rewrites the record.
//   - StrategySeparated: the current state lives in a compact current
//     record; superseded versions migrate to chained history segments, so
//     current-state access never pays for history length.
//   - StrategyTuple: classic tuple versioning; every update writes a whole
//     new snapshot record chained to its predecessor.
package atom

import (
	"fmt"
	"sort"

	"tcodm/internal/schema"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Version is one bitemporally stamped value of an attribute. For set-valued
// attributes (Many-cardinality references and back-references) several
// versions may hold at the same valid instant, one per set member; for
// plain attributes the versions live at any one transaction time have
// pairwise disjoint valid intervals.
type Version struct {
	Valid temporal.Interval // when the value holds in modelled reality
	Trans temporal.Interval // when the version was part of the stored state
	Val   value.V
}

// VisibleAt reports whether the version holds at valid time vt as recorded
// at transaction time tt.
func (v Version) VisibleAt(vt, tt temporal.Instant) bool {
	return v.Valid.Contains(vt) && v.Trans.Contains(tt)
}

// Live reports whether the version belongs to the current recorded state.
func (v Version) Live() bool { return v.Trans.IsOpenEnded() }

// currentShaped reports whether the version belongs in a separated-strategy
// current record: live and open-ended into the valid future.
func (v Version) currentShaped() bool { return v.Live() && v.Valid.IsOpenEnded() }

// AttrData is the stored state of one attribute: its full version history.
// Set reports set semantics (multiple concurrently valid versions).
type AttrData struct {
	Name     string
	Set      bool
	Versions []Version
}

// Atom is the in-memory form of one temporal atom. BackRefs hold the
// inverse direction of every reference pointing at this atom (the MAD
// model's bidirectional links), keyed by "SourceType.attr".
type Atom struct {
	ID       value.ID
	Type     string
	Lifespan temporal.Element
	Attrs    []AttrData
	BackRefs map[string][]Version
	// Arc points at the atom's archived (cold-tiered) history; zero when
	// every version is still in the hot store. Mutations re-encode it
	// untouched — only ArchiveOlderThan moves it.
	Arc ArcPtr
}

// NewAtom builds an empty atom shaped by its schema type.
func NewAtom(id value.ID, t *schema.AtomType) *Atom {
	a := &Atom{ID: id, Type: t.Name, BackRefs: map[string][]Version{}}
	a.Attrs = make([]AttrData, len(t.Attrs))
	for i, at := range t.Attrs {
		a.Attrs[i] = AttrData{Name: at.Name, Set: at.IsRef() && at.Card == schema.Many}
	}
	return a
}

// Attr returns the attribute data by name, or nil.
func (a *Atom) Attr(name string) *AttrData {
	for i := range a.Attrs {
		if a.Attrs[i].Name == name {
			return &a.Attrs[i]
		}
	}
	return nil
}

// AliveAt reports whether the atom exists at valid time vt.
func (a *Atom) AliveAt(vt temporal.Instant) bool { return a.Lifespan.Contains(vt) }

// --- Temporal mutation logic (shared by all physical strategies) --------

// spliceVersion records a new value for a plain (non-set) attribute over
// valid interval iv at transaction time tt. Every live version overlapping
// iv is logically deleted (its transaction interval closed) and re-recorded
// for the parts of its validity outside iv. The superseded versions are
// returned so strategies that migrate history can act on them.
func (ad *AttrData) spliceVersion(iv temporal.Interval, val value.V, tt temporal.Instant) (superseded []Version, err error) {
	if ad.Set {
		return nil, fmt.Errorf("atom: spliceVersion on set attribute %q", ad.Name)
	}
	if iv.IsEmpty() {
		return nil, fmt.Errorf("atom: empty valid interval for %q", ad.Name)
	}
	var kept []Version
	var continuations []Version
	for _, v := range ad.Versions {
		if !v.Live() || !v.Valid.Overlaps(iv) {
			kept = append(kept, v)
			continue
		}
		closed := v
		closed.Trans.To = tt
		kept = append(kept, closed)
		superseded = append(superseded, closed)
		// Re-record the untouched parts of the old validity.
		for _, rest := range (temporal.Element{v.Valid}).SubtractInterval(iv) {
			continuations = append(continuations, Version{
				Valid: rest,
				Trans: temporal.Open(tt),
				Val:   v.Val,
			})
		}
	}
	kept = append(kept, continuations...)
	kept = append(kept, Version{Valid: iv, Trans: temporal.Open(tt), Val: val})
	ad.Versions = kept
	return superseded, nil
}

// addSetMember records that val joins the set over iv at transaction tt.
// Overlapping live versions with the same value are absorbed (their valid
// intervals merged) to keep histories coalesced.
func (ad *AttrData) addSetMember(iv temporal.Interval, val value.V, tt temporal.Instant) (superseded []Version, err error) {
	if !ad.Set {
		return nil, fmt.Errorf("atom: addSetMember on plain attribute %q", ad.Name)
	}
	if iv.IsEmpty() {
		return nil, fmt.Errorf("atom: empty valid interval for %q", ad.Name)
	}
	covered := temporal.Element{iv}
	var kept []Version
	for _, v := range ad.Versions {
		if v.Live() && v.Val.Equal(val) && v.Valid.Mergeable(iv) {
			if v.Valid.ContainsInterval(iv) {
				return nil, nil // already a member throughout iv: no-op
			}
			closed := v
			closed.Trans.To = tt
			kept = append(kept, closed)
			superseded = append(superseded, closed)
			covered = covered.Union(temporal.Element{v.Valid})
			continue
		}
		kept = append(kept, v)
	}
	for _, part := range covered {
		kept = append(kept, Version{Valid: part, Trans: temporal.Open(tt), Val: val})
	}
	ad.Versions = kept
	return superseded, nil
}

// removeSetMember records that val leaves the set over iv at transaction
// time tt.
func (ad *AttrData) removeSetMember(iv temporal.Interval, val value.V, tt temporal.Instant) (superseded []Version, err error) {
	if !ad.Set {
		return nil, fmt.Errorf("atom: removeSetMember on plain attribute %q", ad.Name)
	}
	var kept []Version
	var continuations []Version
	for _, v := range ad.Versions {
		if !v.Live() || !v.Val.Equal(val) || !v.Valid.Overlaps(iv) {
			kept = append(kept, v)
			continue
		}
		closed := v
		closed.Trans.To = tt
		kept = append(kept, closed)
		superseded = append(superseded, closed)
		for _, rest := range (temporal.Element{v.Valid}).SubtractInterval(iv) {
			continuations = append(continuations, Version{Valid: rest, Trans: temporal.Open(tt), Val: v.Val})
		}
	}
	kept = append(kept, continuations...)
	ad.Versions = kept
	return superseded, nil
}

// ValueAt returns the attribute's value at (vt, tt) for a plain attribute
// (Null if none holds).
func (ad *AttrData) ValueAt(vt, tt temporal.Instant) value.V {
	for i := len(ad.Versions) - 1; i >= 0; i-- {
		if ad.Versions[i].VisibleAt(vt, tt) {
			return ad.Versions[i].Val
		}
	}
	return value.Null
}

// SetAt returns all values holding at (vt, tt) for a set attribute.
func (ad *AttrData) SetAt(vt, tt temporal.Instant) []value.V {
	var out []value.V
	for _, v := range ad.Versions {
		if v.VisibleAt(vt, tt) {
			out = append(out, v.Val)
		}
	}
	return out
}

// HistoryAt returns the valid-time history as recorded at transaction time
// tt: visible versions sorted by valid start.
func (ad *AttrData) HistoryAt(tt temporal.Instant) []Version {
	var out []Version
	for _, v := range ad.Versions {
		if v.Trans.Contains(tt) {
			out = append(out, v)
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

// CheckInvariant verifies the disjoint-valid invariant for plain attributes
// at transaction time tt (test and debugging support).
func (ad *AttrData) CheckInvariant(tt temporal.Instant) error {
	if ad.Set {
		return nil
	}
	hist := ad.HistoryAt(tt)
	for i := 1; i < len(hist); i++ {
		if hist[i-1].Valid.Overlaps(hist[i].Valid) {
			return fmt.Errorf("atom: attribute %q has overlapping valid intervals %v and %v at tt=%v",
				ad.Name, hist[i-1].Valid, hist[i].Valid, tt)
		}
	}
	return nil
}

// backRefKey names the inverse direction of a reference attribute.
func backRefKey(sourceType, attr string) string { return sourceType + "." + attr }

// addBackRef records an inverse link version on the target atom.
func (a *Atom) addBackRef(sourceType, attr string, source value.ID, iv temporal.Interval, tt temporal.Instant) {
	key := backRefKey(sourceType, attr)
	a.BackRefs[key] = append(a.BackRefs[key], Version{
		Valid: iv,
		Trans: temporal.Open(tt),
		Val:   value.Ref(source),
	})
}

// trimBackRef closes the inverse link from source over iv at transaction tt.
func (a *Atom) trimBackRef(sourceType, attr string, source value.ID, iv temporal.Interval, tt temporal.Instant) {
	key := backRefKey(sourceType, attr)
	var kept, continuations []Version
	for _, v := range a.BackRefs[key] {
		if !v.Live() || v.Val.AsID() != source || !v.Valid.Overlaps(iv) {
			kept = append(kept, v)
			continue
		}
		closed := v
		closed.Trans.To = tt
		kept = append(kept, closed)
		for _, rest := range (temporal.Element{v.Valid}).SubtractInterval(iv) {
			continuations = append(continuations, Version{Valid: rest, Trans: temporal.Open(tt), Val: v.Val})
		}
	}
	kept = append(kept, continuations...)
	if len(kept) == 0 {
		delete(a.BackRefs, key)
		return
	}
	a.BackRefs[key] = kept
}
