package temporal

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Stamp is a bitemporal timestamp attached to every stored version: the
// valid-time interval during which the version's value holds in the modelled
// reality, and the transaction-time interval during which the version was
// part of the current database state. Transaction time is always assigned
// by the system; a version that is still part of the current state has an
// open-ended transaction interval.
type Stamp struct {
	Valid Interval // application-supplied validity
	Trans Interval // system-supplied transaction lifetime
}

// Current reports whether the version is part of the current database
// state (its transaction interval is open-ended).
func (s Stamp) Current() bool { return s.Trans.IsOpenEnded() }

// VisibleAt reports whether the version was part of the database state as
// recorded at transaction time tt and holds at valid time vt.
func (s Stamp) VisibleAt(vt, tt Instant) bool {
	return s.Valid.Contains(vt) && s.Trans.Contains(tt)
}

// String renders the stamp as "valid@trans".
func (s Stamp) String() string {
	return fmt.Sprintf("v%s t%s", s.Valid, s.Trans)
}

// Encoded sizes of the fixed-width wire forms.
const (
	InstantWireSize  = 8
	IntervalWireSize = 2 * InstantWireSize
	StampWireSize    = 2 * IntervalWireSize
)

// AppendInstant appends the 8-byte big-endian wire form of t to dst.
// The encoding is order-preserving under bytewise comparison (the sign bit
// is flipped), which lets instants participate in composite index keys.
func AppendInstant(dst []byte, t Instant) []byte {
	var buf [InstantWireSize]byte
	binary.BigEndian.PutUint64(buf[:], uint64(t)^(1<<63))
	return append(dst, buf[:]...)
}

// DecodeInstant decodes an instant produced by AppendInstant.
func DecodeInstant(src []byte) (Instant, error) {
	if len(src) < InstantWireSize {
		return 0, fmt.Errorf("temporal: short instant encoding (%d bytes)", len(src))
	}
	return Instant(binary.BigEndian.Uint64(src) ^ (1 << 63)), nil
}

// AppendInterval appends the wire form of iv (From then To) to dst.
func AppendInterval(dst []byte, iv Interval) []byte {
	dst = AppendInstant(dst, iv.From)
	return AppendInstant(dst, iv.To)
}

// DecodeInterval decodes an interval produced by AppendInterval.
func DecodeInterval(src []byte) (Interval, error) {
	if len(src) < IntervalWireSize {
		return Interval{}, fmt.Errorf("temporal: short interval encoding (%d bytes)", len(src))
	}
	from, err := DecodeInstant(src)
	if err != nil {
		return Interval{}, err
	}
	to, err := DecodeInstant(src[InstantWireSize:])
	if err != nil {
		return Interval{}, err
	}
	return Interval{From: from, To: to}, nil
}

// AppendStamp appends the wire form of s (valid then trans) to dst.
func AppendStamp(dst []byte, s Stamp) []byte {
	dst = AppendInterval(dst, s.Valid)
	return AppendInterval(dst, s.Trans)
}

// DecodeStamp decodes a stamp produced by AppendStamp.
func DecodeStamp(src []byte) (Stamp, error) {
	if len(src) < StampWireSize {
		return Stamp{}, fmt.Errorf("temporal: short stamp encoding (%d bytes)", len(src))
	}
	v, err := DecodeInterval(src)
	if err != nil {
		return Stamp{}, err
	}
	t, err := DecodeInterval(src[IntervalWireSize:])
	if err != nil {
		return Stamp{}, err
	}
	return Stamp{Valid: v, Trans: t}, nil
}

// AppendElement appends a length-prefixed wire form of e to dst.
func AppendElement(dst []byte, e Element) []byte {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(e)))
	dst = append(dst, lenBuf[:]...)
	for _, iv := range e {
		dst = AppendInterval(dst, iv)
	}
	return dst
}

// ElementWire is an element in its wire form, validated and read in place:
// the interval bytes that follow AppendElement's length prefix. It aliases
// the buffer it was split from.
type ElementWire []byte

// SplitElement validates the element encoded at the head of src — length,
// truncation, canonical form — and returns it in place with the number of
// bytes consumed. Nothing is allocated.
func SplitElement(src []byte) (ElementWire, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("temporal: short element encoding (%d bytes)", len(src))
	}
	n := int(binary.BigEndian.Uint32(src))
	need := 4 + n*IntervalWireSize
	if len(src) < need {
		return nil, 0, fmt.Errorf("temporal: element encoding truncated: need %d bytes, have %d", need, len(src))
	}
	w := ElementWire(src[4:need])
	for i := 0; i < n; i++ {
		iv := w.Interval(i)
		if iv.IsEmpty() || (i > 0 && w.Interval(i-1).To >= iv.From) {
			return nil, 0, fmt.Errorf("temporal: decoded element is not canonical: %s", w.Decode())
		}
	}
	return w, need, nil
}

// Len returns the number of intervals.
func (w ElementWire) Len() int { return len(w) / IntervalWireSize }

// Interval returns the i-th interval.
func (w ElementWire) Interval(i int) Interval {
	b := w[i*IntervalWireSize:]
	return Interval{
		From: Instant(binary.BigEndian.Uint64(b) ^ (1 << 63)),
		To:   Instant(binary.BigEndian.Uint64(b[InstantWireSize:]) ^ (1 << 63)),
	}
}

// Contains reports whether instant t is in the element.
func (w ElementWire) Contains(t Instant) bool {
	for i, n := 0, w.Len(); i < n; i++ {
		if w.Interval(i).Contains(t) {
			return true
		}
	}
	return false
}

// Decode materializes the element (nil when empty).
func (w ElementWire) Decode() Element {
	n := w.Len()
	if n == 0 {
		return nil
	}
	e := make(Element, n)
	for i := range e {
		e[i] = w.Interval(i)
	}
	return e
}

// DecodeElement decodes an element produced by AppendElement, returning the
// element and the number of bytes consumed.
func DecodeElement(src []byte) (Element, int, error) {
	w, n, err := SplitElement(src)
	if err != nil {
		return nil, 0, err
	}
	return w.Decode(), n, nil
}

// Clock issues strictly monotone transaction-time instants. The zero value
// starts at instant 1. Now may be called concurrently with Tick/Advance;
// the transaction manager serializes the advancing side.
type Clock struct {
	last int64 // accessed atomically
}

// NewClock returns a clock whose next tick is strictly after last.
func NewClock(last Instant) *Clock { return &Clock{last: int64(last)} }

// Tick returns the next instant, strictly greater than any previous tick.
func (c *Clock) Tick() Instant {
	return Instant(atomic.AddInt64(&c.last, 1))
}

// Now returns the most recently issued instant without advancing the clock.
func (c *Clock) Now() Instant { return Instant(atomic.LoadInt64(&c.last)) }

// Advance moves the clock forward to at least t.
func (c *Clock) Advance(t Instant) {
	for {
		cur := atomic.LoadInt64(&c.last)
		if int64(t) <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&c.last, cur, int64(t)) {
			return
		}
	}
}
