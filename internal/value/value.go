// Package value implements the typed scalar value system of the data model:
// the attribute domains of atoms (integers, floats, strings, booleans,
// instants, and surrogate identifiers), comparison, and two binary
// encodings — a compact record encoding and an order-preserving key
// encoding used in composite index keys.
package value

import (
	"encoding/binary"
	"fmt"
	"math"

	"tcodm/internal/temporal"
)

// Kind identifies the domain of a value.
type Kind uint8

const (
	// KindNull is the absent value. Null sorts before every other value.
	KindNull Kind = iota
	// KindBool is the boolean domain.
	KindBool
	// KindInt is the 64-bit signed integer domain.
	KindInt
	// KindFloat is the 64-bit IEEE floating-point domain.
	KindFloat
	// KindString is the UTF-8 string domain.
	KindString
	// KindInstant is the chronon (time point) domain.
	KindInstant
	// KindID is the surrogate-identifier domain (atom identity and
	// reference attribute targets).
	KindID
)

var kindNames = [...]string{
	KindNull:    "null",
	KindBool:    "bool",
	KindInt:     "int",
	KindFloat:   "float",
	KindString:  "string",
	KindInstant: "instant",
	KindID:      "id",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind maps a lowercase kind name to its Kind, reporting ok=false for
// unknown names. "null" is not a declarable attribute domain and is
// rejected.
func ParseKind(name string) (Kind, bool) {
	switch name {
	case "bool":
		return KindBool, true
	case "int":
		return KindInt, true
	case "float":
		return KindFloat, true
	case "string":
		return KindString, true
	case "instant":
		return KindInstant, true
	case "id":
		return KindID, true
	default:
		return KindNull, false
	}
}

// ID is a surrogate: the system-assigned, immutable identity of an atom.
// IDs are never reused. The zero ID is invalid ("no atom").
type ID uint64

// IsValid reports whether the ID denotes an atom.
func (id ID) IsValid() bool { return id != 0 }

// String renders the ID as "@n".
func (id ID) String() string { return fmt.Sprintf("@%d", uint64(id)) }

// V is a typed scalar value. The zero value is Null. V is a small
// copyable struct: numeric payloads live in num, strings in str.
type V struct {
	kind Kind
	num  uint64
	str  string
}

// Null is the absent value.
var Null = V{}

// Bool returns a boolean value.
func Bool(b bool) V {
	var n uint64
	if b {
		n = 1
	}
	return V{kind: KindBool, num: n}
}

// Int returns an integer value.
func Int(i int64) V { return V{kind: KindInt, num: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) V { return V{kind: KindFloat, num: math.Float64bits(f)} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(s string) V { return V{kind: KindString, str: s} }

// Instant returns a time-point value.
func Instant(t temporal.Instant) V { return V{kind: KindInstant, num: uint64(t)} }

// Ref returns a surrogate-identifier value.
func Ref(id ID) V { return V{kind: KindID, num: uint64(id)} }

// Kind returns the domain of the value.
func (v V) Kind() Kind { return v.kind }

// IsNull reports whether the value is absent.
func (v V) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it panics on kind mismatch.
func (v V) AsBool() bool { v.mustBe(KindBool); return v.num != 0 }

// AsInt returns the integer payload; it panics on kind mismatch.
func (v V) AsInt() int64 { v.mustBe(KindInt); return int64(v.num) }

// AsFloat returns the float payload; it panics on kind mismatch.
func (v V) AsFloat() float64 { v.mustBe(KindFloat); return math.Float64frombits(v.num) }

// AsString returns the string payload; it panics on kind mismatch.
func (v V) AsString() string { v.mustBe(KindString); return v.str }

// AsInstant returns the instant payload; it panics on kind mismatch.
func (v V) AsInstant() temporal.Instant { v.mustBe(KindInstant); return temporal.Instant(v.num) }

// AsID returns the surrogate payload; it panics on kind mismatch.
func (v V) AsID() ID { v.mustBe(KindID); return ID(v.num) }

func (v V) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s accessed as %s", v.kind, k))
	}
}

// Numeric reports whether the value is of a numeric kind (int or float).
func (v V) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// FloatValue returns the numeric value as a float64 (ints are widened).
// It panics unless Numeric().
func (v V) FloatValue() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num))
	case KindFloat:
		return math.Float64frombits(v.num)
	default:
		panic(fmt.Sprintf("value: %s is not numeric", v.kind))
	}
}

// Equal reports deep equality of two values (kind and payload).
// Int and Float values never compare equal to each other even when
// numerically equal; use Compare for ordered comparison.
func (v V) Equal(o V) bool { return v == o }

// Compare orders two values: -1, 0, or +1. Values of different kinds order
// by kind number (null first), except that int and float compare
// numerically. NaN floats sort before all other floats.
func (v V) Compare(o V) int {
	if v.Numeric() && o.Numeric() && v.kind != o.kind {
		return compareFloats(v.FloatValue(), o.FloatValue())
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool, KindID:
		return compareUints(v.num, o.num)
	case KindInt, KindInstant:
		return compareInts(int64(v.num), int64(o.num))
	case KindFloat:
		return compareFloats(math.Float64frombits(v.num), math.Float64frombits(o.num))
	case KindString:
		switch {
		case v.str < o.str:
			return -1
		case v.str > o.str:
			return 1
		default:
			return 0
		}
	default:
		panic(fmt.Sprintf("value: compare of unknown kind %d", v.kind))
	}
}

func compareUints(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareInts(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareFloats(a, b float64) int {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return -1
	case bNaN:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// String renders the value for display.
func (v V) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return fmt.Sprintf("%d", int64(v.num))
	case KindFloat:
		return fmt.Sprintf("%g", math.Float64frombits(v.num))
	case KindString:
		return fmt.Sprintf("%q", v.str)
	case KindInstant:
		return temporal.Instant(v.num).String()
	case KindID:
		return ID(v.num).String()
	default:
		return fmt.Sprintf("value(kind=%d)", v.kind)
	}
}

// AppendRecord appends the compact record encoding of v to dst:
// a 1-byte kind tag followed by the payload (8-byte little-endian number or
// a uvarint-length-prefixed string).
func AppendRecord(dst []byte, v V) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
		return dst
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.str)))
		return append(dst, v.str...)
	default:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v.num)
		return append(dst, buf[:]...)
	}
}

// RecordSize returns the length of the record encoding at the head of src,
// validating everything DecodeRecord validates without building the value —
// what a reader needs to step over a value it does not want.
func RecordSize(src []byte) (int, error) {
	if len(src) == 0 {
		return 0, fmt.Errorf("value: empty record encoding")
	}
	switch Kind(src[0]) {
	case KindNull:
		return 1, nil
	case KindString:
		n, sz := binary.Uvarint(src[1:])
		if sz <= 0 {
			return 0, fmt.Errorf("value: corrupt string length")
		}
		start := 1 + sz
		end := start + int(n)
		if end > len(src) || end < start {
			return 0, fmt.Errorf("value: string payload truncated (need %d bytes, have %d)", end, len(src))
		}
		return end, nil
	case KindBool, KindInt, KindFloat, KindInstant, KindID:
		if len(src) < 9 {
			return 0, fmt.Errorf("value: numeric payload truncated")
		}
		return 9, nil
	default:
		return 0, fmt.Errorf("value: unknown kind tag %d", src[0])
	}
}

// DecodeRecord decodes a value produced by AppendRecord, returning the
// value and the number of bytes consumed. String payloads are copied, so
// the value never aliases src.
func DecodeRecord(src []byte) (V, int, error) {
	n, err := RecordSize(src)
	if err != nil {
		return Null, 0, err
	}
	switch k := Kind(src[0]); k {
	case KindNull:
		return Null, n, nil
	case KindString:
		_, sz := binary.Uvarint(src[1:])
		return String_(string(src[1+sz : n])), n, nil
	default:
		return V{kind: k, num: binary.LittleEndian.Uint64(src[1:9])}, n, nil
	}
}

// AppendKey appends the order-preserving key encoding of v to dst. The
// encoding guarantees bytes.Compare(AppendKey(a), AppendKey(b)) has the same
// sign as a.Compare(b) for values of the same kind, and kinds are segregated
// by a leading tag so mixed-kind keys order by kind. Int/float cross-kind
// numeric ordering is NOT preserved by key encoding; indexes are built over
// single-kind attribute domains where this cannot arise.
func AppendKey(dst []byte, v V) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
		return dst
	case KindBool, KindID:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v.num)
		return append(dst, buf[:]...)
	case KindInt, KindInstant:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v.num^(1<<63))
		return append(dst, buf[:]...)
	case KindFloat:
		bits := v.num
		if bits&(1<<63) != 0 {
			bits = ^bits // negative floats: flip everything
		} else {
			bits ^= 1 << 63 // positive floats: flip sign bit
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...)
	case KindString:
		// Escape 0x00 as 0x00 0xFF and terminate with 0x00 0x00 so that
		// prefixes order correctly ("a" < "aa") and embedded NULs survive.
		for i := 0; i < len(v.str); i++ {
			c := v.str[i]
			dst = append(dst, c)
			if c == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		return append(dst, 0x00, 0x00)
	default:
		panic(fmt.Sprintf("value: AppendKey of unknown kind %d", v.kind))
	}
}
