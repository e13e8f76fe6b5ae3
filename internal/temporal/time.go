// Package temporal implements the time substrate of the temporal
// complex-object data model: discrete instants (chronons), half-open
// intervals, temporal elements (finite unions of disjoint intervals),
// Allen's interval relations, and bitemporal stamps combining valid time
// and transaction time.
//
// The model uses a discrete, linearly ordered time domain. An Instant is a
// chronon number; applications map wall-clock time onto chronons at whatever
// granularity they need (days, seconds, ...). Two distinguished sentinels
// exist: Beginning (the least representable instant) and Forever (the
// until-changed / "now and beyond" upper sentinel used for open-ended
// validity).
package temporal

import (
	"fmt"
	"math"
)

// Instant is a point on the discrete time axis (a chronon number).
type Instant int64

const (
	// Beginning is the least valid instant.
	Beginning Instant = math.MinInt64 + 1
	// Forever is the upper sentinel: an interval ending at Forever is
	// open-ended ("until changed"). Forever itself is never contained in
	// any interval's extent as a slice point for stored data, but may be
	// used as an exclusive end bound.
	Forever Instant = math.MaxInt64
)

// Min returns the smaller of two instants.
func Min(a, b Instant) Instant {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of two instants.
func Max(a, b Instant) Instant {
	if a > b {
		return a
	}
	return b
}

// String renders the instant, using symbolic names for the sentinels.
func (t Instant) String() string {
	switch t {
	case Beginning:
		return "-inf"
	case Forever:
		return "inf"
	default:
		return fmt.Sprintf("%d", int64(t))
	}
}

// Interval is a half-open interval [From, To) on the time axis.
// An interval is empty iff From >= To. The canonical empty interval is the
// zero value Interval{}.
type Interval struct {
	From Instant // inclusive lower bound
	To   Instant // exclusive upper bound
}

// NewInterval returns the interval [from, to). It panics if from > to,
// which always indicates a programming error in the caller.
func NewInterval(from, to Instant) Interval {
	if from > to {
		panic(fmt.Sprintf("temporal: invalid interval [%v, %v)", from, to))
	}
	return Interval{From: from, To: to}
}

// Point returns the unit interval [t, t+1) containing exactly instant t.
func Point(t Instant) Interval {
	if t == Forever {
		panic("temporal: Point(Forever) is not representable")
	}
	return Interval{From: t, To: t + 1}
}

// Open returns the open-ended interval [from, Forever).
func Open(from Instant) Interval { return Interval{From: from, To: Forever} }

// All is the interval covering the entire time axis.
func All() Interval { return Interval{From: Beginning, To: Forever} }

// IsEmpty reports whether the interval contains no instants.
func (iv Interval) IsEmpty() bool { return iv.From >= iv.To }

// IsOpenEnded reports whether the interval extends to Forever.
func (iv Interval) IsOpenEnded() bool { return iv.To == Forever && iv.From < iv.To }

// Duration returns the number of chronons in the interval. An open-ended
// interval has unbounded duration, reported as the largest int64.
func (iv Interval) Duration() int64 {
	if iv.IsEmpty() {
		return 0
	}
	if iv.IsOpenEnded() || iv.From == Beginning {
		return math.MaxInt64
	}
	return int64(iv.To - iv.From)
}

// Contains reports whether instant t lies within the interval.
func (iv Interval) Contains(t Instant) bool { return iv.From <= t && t < iv.To }

// ContainsInterval reports whether o is entirely inside iv. The empty
// interval is contained in everything.
func (iv Interval) ContainsInterval(o Interval) bool {
	if o.IsEmpty() {
		return true
	}
	return iv.From <= o.From && o.To <= iv.To
}

// Overlaps reports whether the two intervals share at least one instant.
func (iv Interval) Overlaps(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.From < o.To && o.From < iv.To
}

// Intersect returns the common part of the two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	from := Max(iv.From, o.From)
	to := Min(iv.To, o.To)
	if from >= to {
		return Interval{}
	}
	return Interval{From: from, To: to}
}

// Adjacent reports whether the intervals abut without overlapping
// (iv.To == o.From or o.To == iv.From) and neither is empty.
func (iv Interval) Adjacent(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.To == o.From || o.To == iv.From
}

// Mergeable reports whether the union of the two intervals is itself a
// single interval (they overlap or are adjacent).
func (iv Interval) Mergeable(o Interval) bool {
	return iv.Overlaps(o) || iv.Adjacent(o)
}

// Union returns the smallest single interval covering both operands.
// It panics unless Mergeable(o) or one operand is empty.
func (iv Interval) Union(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	if !iv.Mergeable(o) {
		panic(fmt.Sprintf("temporal: union of disjoint intervals %v, %v", iv, o))
	}
	return Interval{From: Min(iv.From, o.From), To: Max(iv.To, o.To)}
}

// Equal reports whether the intervals denote the same set of instants.
// All empty intervals are equal.
func (iv Interval) Equal(o Interval) bool {
	if iv.IsEmpty() && o.IsEmpty() {
		return true
	}
	return iv == o
}

// Before reports whether iv ends strictly before o starts (Allen: precedes
// or meets excluded — strictly before with a gap or meeting; here: iv.To <=
// o.From, i.e. no shared instant and iv entirely earlier).
func (iv Interval) Before(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.To <= o.From
}

// String renders the interval in [from, to) notation.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[)"
	}
	return fmt.Sprintf("[%v, %v)", iv.From, iv.To)
}
