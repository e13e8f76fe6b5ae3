package temporal

import (
	"sort"
	"strings"
)

// Element is a temporal element: a finite union of instants represented as
// a canonical sequence of intervals. The canonical form is: all intervals
// non-empty, sorted by From, pairwise disjoint and non-adjacent (maximally
// coalesced). The zero value is the empty element.
//
// Elements are the lifespans of atoms and the timestamps of attribute
// values in the temporal complex-object model: an atom that is deleted and
// later re-inserted has a lifespan of two disjoint intervals.
type Element []Interval

// NewElement builds a canonical element from arbitrary intervals
// (overlapping, adjacent, unsorted, possibly empty ones allowed).
func NewElement(ivs ...Interval) Element {
	nonEmpty := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.IsEmpty() {
			nonEmpty = append(nonEmpty, iv)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	sort.Slice(nonEmpty, func(i, j int) bool {
		if nonEmpty[i].From != nonEmpty[j].From {
			return nonEmpty[i].From < nonEmpty[j].From
		}
		return nonEmpty[i].To < nonEmpty[j].To
	})
	out := Element{nonEmpty[0]}
	for _, iv := range nonEmpty[1:] {
		last := &out[len(out)-1]
		if last.Mergeable(iv) {
			*last = last.Union(iv)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// IsEmpty reports whether the element contains no instants.
func (e Element) IsEmpty() bool { return len(e) == 0 }

// IsCanonical reports whether the element is in canonical form. All
// elements produced by this package are canonical; the predicate exists for
// validating externally supplied or deserialized data.
func (e Element) IsCanonical() bool {
	for i, iv := range e {
		if iv.IsEmpty() {
			return false
		}
		if i > 0 && e[i-1].To >= iv.From {
			return false
		}
	}
	return true
}

// Contains reports whether instant t is in the element.
func (e Element) Contains(t Instant) bool {
	i := sort.Search(len(e), func(i int) bool { return e[i].To > t })
	return i < len(e) && e[i].Contains(t)
}

// CoversInterval reports whether the whole interval iv lies inside the
// element (inside a single constituent interval, since constituents are
// maximally coalesced).
func (e Element) CoversInterval(iv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	i := sort.Search(len(e), func(i int) bool { return e[i].To > iv.From })
	return i < len(e) && e[i].ContainsInterval(iv)
}

// Overlaps reports whether the element shares any instant with iv.
func (e Element) Overlaps(iv Interval) bool {
	if iv.IsEmpty() {
		return false
	}
	i := sort.Search(len(e), func(i int) bool { return e[i].To > iv.From })
	return i < len(e) && e[i].Overlaps(iv)
}

// Span returns the smallest single interval covering the element
// (empty interval for the empty element).
func (e Element) Span() Interval {
	if len(e) == 0 {
		return Interval{}
	}
	return Interval{From: e[0].From, To: e[len(e)-1].To}
}

// Duration returns the total number of chronons in the element, saturating
// at the largest int64 for unbounded elements.
func (e Element) Duration() int64 {
	var total int64
	for _, iv := range e {
		d := iv.Duration()
		if total += d; total < 0 || d == int64(^uint64(0)>>1) {
			return int64(^uint64(0) >> 1)
		}
	}
	return total
}

// Union returns the canonical union of two elements.
func (e Element) Union(o Element) Element {
	if e.IsEmpty() {
		return o.Clone()
	}
	if o.IsEmpty() {
		return e.Clone()
	}
	merged := make([]Interval, 0, len(e)+len(o))
	merged = append(merged, e...)
	merged = append(merged, o...)
	return NewElement(merged...)
}

// Intersect returns the canonical intersection of two elements.
func (e Element) Intersect(o Element) Element {
	var out Element
	i, j := 0, 0
	for i < len(e) && j < len(o) {
		iv := e[i].Intersect(o[j])
		if !iv.IsEmpty() {
			out = append(out, iv)
		}
		if e[i].To <= o[j].To {
			i++
		} else {
			j++
		}
	}
	return out
}

// Subtract returns the canonical difference e \ o.
func (e Element) Subtract(o Element) Element {
	if e.IsEmpty() || o.IsEmpty() {
		return e.Clone()
	}
	var out Element
	j := 0
	for _, iv := range e {
		cur := iv
		for j < len(o) && o[j].To <= cur.From {
			j++
		}
		k := j
		for k < len(o) && o[k].From < cur.To {
			sub := o[k]
			if sub.From > cur.From {
				out = append(out, Interval{From: cur.From, To: sub.From})
			}
			if sub.To >= cur.To {
				cur = Interval{} // fully consumed
				break
			}
			cur = Interval{From: sub.To, To: cur.To}
			k++
		}
		if !cur.IsEmpty() {
			out = append(out, cur)
		}
	}
	return out
}

// SubtractInterval returns e with the instants of iv removed.
func (e Element) SubtractInterval(iv Interval) Element {
	if iv.IsEmpty() {
		return e.Clone()
	}
	return e.Subtract(Element{iv})
}

// Complement returns the element of all instants not in e, within the
// universe [Beginning, Forever).
func (e Element) Complement() Element {
	return Element{All()}.Subtract(e)
}

// Equal reports whether two elements denote the same set of instants.
// Both are assumed canonical.
func (e Element) Equal(o Element) bool {
	if len(e) != len(o) {
		return false
	}
	for i := range e {
		if e[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the element.
func (e Element) Clone() Element {
	if e == nil {
		return nil
	}
	out := make(Element, len(e))
	copy(out, e)
	return out
}

// String renders the element as a brace-enclosed list of intervals.
func (e Element) String() string {
	if e.IsEmpty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range e {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}
