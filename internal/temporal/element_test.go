package temporal

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genElement is the quick generator used by the property tests: a small
// random set of intervals over a bounded axis, canonicalized.
type genElement Element

// Generate implements quick.Generator.
func (genElement) Generate(rand *rand.Rand, size int) reflect.Value {
	n := rand.Intn(5)
	ivs := make([]Interval, n)
	for i := range ivs {
		from := Instant(rand.Intn(60))
		ivs[i] = Interval{From: from, To: from + Instant(1+rand.Intn(12))}
	}
	return reflect.ValueOf(genElement(NewElement(ivs...)))
}

func TestNewElementCanonicalizes(t *testing.T) {
	e := NewElement(
		NewInterval(10, 20),
		NewInterval(0, 5),
		NewInterval(5, 10), // adjacent to both neighbours: everything coalesces
		Interval{},         // empty intervals dropped
		NewInterval(30, 40),
	)
	want := Element{NewInterval(0, 20), NewInterval(30, 40)}
	if !e.Equal(want) {
		t.Fatalf("NewElement = %v, want %v", e, want)
	}
	if !e.IsCanonical() {
		t.Fatal("result not canonical")
	}
}

func TestElementContains(t *testing.T) {
	e := NewElement(NewInterval(0, 10), NewInterval(20, 30))
	for _, in := range []Instant{0, 9, 20, 29} {
		if !e.Contains(in) {
			t.Errorf("%v should contain %v", e, in)
		}
	}
	for _, out := range []Instant{-1, 10, 15, 30, 100} {
		if e.Contains(out) {
			t.Errorf("%v should not contain %v", e, out)
		}
	}
}

func TestElementCoversInterval(t *testing.T) {
	e := NewElement(NewInterval(0, 10), NewInterval(20, 30))
	if !e.CoversInterval(NewInterval(2, 8)) {
		t.Error("covered interval not reported")
	}
	if e.CoversInterval(NewInterval(5, 25)) {
		t.Error("interval spanning a gap reported covered")
	}
	if !e.CoversInterval(Interval{}) {
		t.Error("empty interval should be covered")
	}
}

func TestElementSetOps(t *testing.T) {
	a := NewElement(NewInterval(0, 10), NewInterval(20, 30))
	b := NewElement(NewInterval(5, 25))

	if got, want := a.Union(b), NewElement(NewInterval(0, 30)); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), NewElement(NewInterval(5, 10), NewInterval(20, 25)); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Subtract(b), NewElement(NewInterval(0, 5), NewInterval(25, 30)); !got.Equal(want) {
		t.Errorf("Subtract = %v, want %v", got, want)
	}
	if got, want := b.Subtract(a), NewElement(NewInterval(10, 20)); !got.Equal(want) {
		t.Errorf("Subtract(b,a) = %v, want %v", got, want)
	}
}

func TestElementComplement(t *testing.T) {
	e := NewElement(NewInterval(0, 10))
	c := e.Complement()
	if c.Contains(5) {
		t.Error("complement contains element instant")
	}
	if !c.Contains(-100) || !c.Contains(10) {
		t.Error("complement missing outside instants")
	}
	if got := c.Complement(); !got.Equal(e) {
		t.Errorf("double complement = %v, want %v", got, e)
	}
}

func TestElementSpanDuration(t *testing.T) {
	e := NewElement(NewInterval(0, 10), NewInterval(20, 30))
	if got := e.Span(); !got.Equal(NewInterval(0, 30)) {
		t.Errorf("Span = %v", got)
	}
	if got := e.Duration(); got != 20 {
		t.Errorf("Duration = %d, want 20", got)
	}
	var empty Element
	if !empty.Span().IsEmpty() || empty.Duration() != 0 {
		t.Error("empty element span/duration wrong")
	}
}

// Property: union is commutative and contains both operands.
func TestPropUnionCommutative(t *testing.T) {
	f := func(ga, gb genElement) bool {
		a, b := Element(ga), Element(gb)
		u1, u2 := a.Union(b), b.Union(a)
		if !u1.Equal(u2) || !u1.IsCanonical() {
			return false
		}
		for _, iv := range a {
			if !u1.CoversInterval(iv) {
				return false
			}
		}
		for _, iv := range b {
			if !u1.CoversInterval(iv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: intersection is commutative, canonical, and contained in both.
func TestPropIntersectCommutative(t *testing.T) {
	f := func(ga, gb genElement) bool {
		a, b := Element(ga), Element(gb)
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if !i1.Equal(i2) || !i1.IsCanonical() {
			return false
		}
		for _, iv := range i1 {
			if !a.CoversInterval(iv) || !b.CoversInterval(iv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pointwise semantics — for every instant on the test axis, set
// membership of the algebraic results matches boolean combinations of
// membership in the operands.
func TestPropPointwiseSemantics(t *testing.T) {
	f := func(ga, gb genElement) bool {
		a, b := Element(ga), Element(gb)
		u := a.Union(b)
		in := a.Intersect(b)
		d := a.Subtract(b)
		for x := Instant(-2); x < 80; x++ {
			ia, ib := a.Contains(x), b.Contains(x)
			if u.Contains(x) != (ia || ib) {
				return false
			}
			if in.Contains(x) != (ia && ib) {
				return false
			}
			if d.Contains(x) != (ia && !ib) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: A \ B, A ∩ B, B \ A partition A ∪ B.
func TestPropPartition(t *testing.T) {
	f := func(ga, gb genElement) bool {
		a, b := Element(ga), Element(gb)
		parts := a.Subtract(b).Union(a.Intersect(b)).Union(b.Subtract(a))
		return parts.Equal(a.Union(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan over the bounded universe.
func TestPropDeMorgan(t *testing.T) {
	f := func(ga, gb genElement) bool {
		a, b := Element(ga), Element(gb)
		left := a.Union(b).Complement()
		right := a.Complement().Intersect(b.Complement())
		return left.Equal(right)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: element round-trips through the wire encoding.
func TestPropElementEncodingRoundTrip(t *testing.T) {
	f := func(ga genElement) bool {
		a := Element(ga)
		buf := AppendElement(nil, a)
		got, n, err := DecodeElement(buf)
		return err == nil && n == len(buf) && got.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElementSubtractEdges(t *testing.T) {
	a := NewElement(NewInterval(0, 100))
	// Subtract a piece in the middle: splits.
	got := a.SubtractInterval(NewInterval(40, 60))
	want := NewElement(NewInterval(0, 40), NewInterval(60, 100))
	if !got.Equal(want) {
		t.Errorf("middle subtract = %v, want %v", got, want)
	}
	// Subtract everything.
	if got := a.SubtractInterval(All()); !got.IsEmpty() {
		t.Errorf("subtract all = %v, want empty", got)
	}
	// Subtract nothing.
	if got := a.SubtractInterval(Interval{}); !got.Equal(a) {
		t.Errorf("subtract empty = %v, want %v", got, a)
	}
	// Subtract disjoint.
	if got := a.SubtractInterval(NewInterval(200, 300)); !got.Equal(a) {
		t.Errorf("subtract disjoint = %v, want %v", got, a)
	}
}

func TestElementString(t *testing.T) {
	if s := (Element{}).String(); s != "{}" {
		t.Errorf("empty element = %q", s)
	}
	e := NewElement(NewInterval(1, 2), NewInterval(5, 9))
	if s := e.String(); s != "{[1, 2), [5, 9)}" {
		t.Errorf("element string = %q", s)
	}
}

func TestElementOverlapsInterval(t *testing.T) {
	e := NewElement(NewInterval(0, 10), NewInterval(20, 30))
	if !e.Overlaps(NewInterval(5, 25)) {
		t.Error("spanning interval should overlap")
	}
	if e.Overlaps(NewInterval(10, 20)) {
		t.Error("gap interval should not overlap")
	}
	if e.Overlaps(Interval{}) {
		t.Error("empty interval should not overlap")
	}
}

func TestIsCanonicalRejects(t *testing.T) {
	bad := []Element{
		{Interval{From: 5, To: 5}},                // empty constituent
		{NewInterval(0, 10), NewInterval(5, 15)},  // overlapping
		{NewInterval(0, 10), NewInterval(10, 15)}, // adjacent (not coalesced)
		{NewInterval(20, 30), NewInterval(0, 10)}, // unsorted
	}
	for _, e := range bad {
		if e.IsCanonical() {
			t.Errorf("IsCanonical(%v) = true, want false", e)
		}
	}
}

// BenchmarkTemporalElement is R-F7 (DESIGN.md §4, EXPERIMENTS.md): union,
// intersection and difference of two n-interval elements.
func BenchmarkTemporalElement(b *testing.B) {
	mkElement := func(n int, seed int64) Element {
		rng := rand.New(rand.NewSource(seed))
		ivs := make([]Interval, n)
		at := Instant(0)
		for i := range ivs {
			at += Instant(1 + rng.Intn(10))
			ivs[i] = NewInterval(at, at+Instant(1+rng.Intn(5)))
			at = ivs[i].To
		}
		return NewElement(ivs...)
	}
	for _, n := range []int{16, 256} {
		a := mkElement(n, 1)
		c := mkElement(n, 2)
		b.Run(fmt.Sprintf("union/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = a.Union(c)
			}
		})
		b.Run(fmt.Sprintf("intersect/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = a.Intersect(c)
			}
		})
		b.Run(fmt.Sprintf("subtract/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = a.Subtract(c)
			}
		})
	}
}
