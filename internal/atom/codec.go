package atom

import (
	"encoding/binary"
	"sort"

	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Record wire formats. All atom-layer records begin with a one-byte kind
// tag so scans can classify heap records.
const (
	recFullAtom    byte = 0x10 // embedded strategy: atom with full history
	recCurrentAtom byte = 0x11 // separated strategy: current state + chain head
	recHistorySeg  byte = 0x12 // separated strategy: history segment
	recSnapshot    byte = 0x13 // tuple strategy: one whole-state snapshot
)

func appendVersion(dst []byte, v Version) []byte {
	dst = temporal.AppendInterval(dst, v.Valid)
	dst = temporal.AppendInterval(dst, v.Trans)
	return value.AppendRecord(dst, v.Val)
}

// appendVersions appends the count and then the versions keep chooses (all
// of them for a nil keep), filtering as it goes rather than into a slice.
func appendVersions(dst []byte, vs []Version, keep func(Version) bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(countKept(vs, keep)))
	for _, v := range vs {
		if keep == nil || keep(v) {
			dst = appendVersion(dst, v)
		}
	}
	return dst
}

// countKept counts the versions keep chooses (all of them for a nil keep).
func countKept(vs []Version, keep func(Version) bool) int {
	if keep == nil {
		return len(vs)
	}
	n := 0
	for _, v := range vs {
		if keep(v) {
			n++
		}
	}
	return n
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeAtomBody serializes the atom's common fields plus the versions
// chosen by the filter (nil filter = all versions).
func encodeAtomBody(dst []byte, a *Atom, keep func(Version) bool) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.ID))
	dst = appendString(dst, a.Type)
	dst = temporal.AppendElement(dst, a.Lifespan)
	dst = binary.AppendUvarint(dst, uint64(len(a.Attrs)))
	for _, ad := range a.Attrs {
		dst = appendString(dst, ad.Name)
		var flags byte
		if ad.Set {
			flags |= 0x01
		}
		dst = append(dst, flags)
		dst = appendVersions(dst, ad.Versions, keep)
	}
	// Back-references, sorted by key for deterministic encodings.
	keys := make([]string, 0, len(a.BackRefs))
	for k := range a.BackRefs {
		if countKept(a.BackRefs[k], keep) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendVersions(dst, a.BackRefs[k], keep)
	}
	return dst
}

// EncodeFull serializes an atom with its entire hot history (embedded
// strategy). A non-zero archive pointer rides as a fixed trailer; atoms
// without archived history encode byte-identically to the legacy format.
func EncodeFull(a *Atom) []byte {
	dst := []byte{recFullAtom}
	dst = encodeAtomBody(dst, a, nil)
	return appendArcTrailer(dst, a.Arc)
}

// DecodeFull deserializes an EncodeFull record.
func DecodeFull(src []byte) (*Atom, error) {
	k := new(atomKeeper)
	arc, err := walkFull(src, k)
	if err != nil {
		return nil, err
	}
	return k.done(arc), nil
}

// SepHeader is the separated-strategy current record's header: where the
// history chain starts, how full its head segment is, and the watermark —
// the largest valid-time end among live-but-bounded versions that were
// migrated to history. Updates whose valid interval starts at or after the
// watermark cannot overlap any live version hiding in history, so they can
// run against the current record alone (the strategy's fast path).
type SepHeader struct {
	Head      storage.RID
	HeadCount uint32
	Watermark temporal.Instant
}

// EncodeCurrent serializes the current state of an atom (separated
// strategy): only current-shaped versions, plus the history chain header.
func EncodeCurrent(a *Atom, h SepHeader) []byte {
	dst := []byte{recCurrentAtom}
	dst = binary.LittleEndian.AppendUint64(dst, h.Head.Pack())
	dst = binary.LittleEndian.AppendUint32(dst, h.HeadCount)
	dst = temporal.AppendInstant(dst, h.Watermark)
	dst = encodeAtomBody(dst, a, Version.currentShaped)
	return appendArcTrailer(dst, a.Arc)
}

// DecodeCurrent deserializes an EncodeCurrent record.
func DecodeCurrent(src []byte) (*Atom, SepHeader, error) {
	k := new(atomKeeper)
	h, arc, err := walkCurrent(src, k)
	if err != nil {
		return nil, SepHeader{}, err
	}
	return k.done(arc), h, nil
}

// HistoryEntry is one archived version inside a history segment: the
// version plus which attribute (or back-ref key) it belonged to.
type HistoryEntry struct {
	Attr    string // attribute name, or back-ref key when BackRef
	BackRef bool
	Ver     Version
}

// EncodeSegment serializes a history segment with a link to the previous
// (older) segment.
func EncodeSegment(prev storage.RID, entries []HistoryEntry) []byte {
	dst := []byte{recHistorySeg}
	dst = binary.LittleEndian.AppendUint64(dst, prev.Pack())
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = appendString(dst, e.Attr)
		var flags byte
		if e.BackRef {
			flags |= 0x01
		}
		dst = append(dst, flags)
		dst = appendVersion(dst, e.Ver)
	}
	return dst
}

// DecodeSegment deserializes an EncodeSegment record.
func DecodeSegment(src []byte) (prev storage.RID, entries []HistoryEntry, err error) {
	var k entryKeeper
	if prev, err = walkSegment(src, &k); err != nil {
		return storage.NilRID, nil, err
	}
	return prev, k.kept, nil
}

// Snapshot is one tuple-strategy whole-state record: the atom's complete
// attribute values as of ValidFrom, recorded at TransFrom, linked to the
// previous snapshot.
type Snapshot struct {
	ID        value.ID
	Type      string
	ValidFrom temporal.Instant
	TransFrom temporal.Instant
	Deleted   bool
	Prev      storage.RID
	// Vals holds the plain attribute values; Sets the set-attribute
	// memberships; BackRefs the inverse links — all as of ValidFrom.
	Vals     map[string]value.V
	Sets     map[string][]value.V
	BackRefs map[string][]value.ID
	// Arc points at the chain's archived prefix. It lives only on the
	// oldest (boundary) snapshot — the one with Prev == NilRID.
	Arc ArcPtr
}

// EncodeSnapshot serializes a tuple-strategy snapshot.
func EncodeSnapshot(s *Snapshot) []byte {
	dst := []byte{recSnapshot}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.ID))
	dst = appendString(dst, s.Type)
	dst = temporal.AppendInstant(dst, s.ValidFrom)
	dst = temporal.AppendInstant(dst, s.TransFrom)
	if s.Deleted {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint64(dst, s.Prev.Pack())

	keys := sortedKeys(s.Vals)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = value.AppendRecord(dst, s.Vals[k])
	}
	setKeys := make([]string, 0, len(s.Sets))
	for k := range s.Sets {
		setKeys = append(setKeys, k)
	}
	sort.Strings(setKeys)
	dst = binary.AppendUvarint(dst, uint64(len(setKeys)))
	for _, k := range setKeys {
		dst = appendString(dst, k)
		dst = binary.AppendUvarint(dst, uint64(len(s.Sets[k])))
		for _, v := range s.Sets[k] {
			dst = value.AppendRecord(dst, v)
		}
	}
	brKeys := make([]string, 0, len(s.BackRefs))
	for k := range s.BackRefs {
		brKeys = append(brKeys, k)
	}
	sort.Strings(brKeys)
	dst = binary.AppendUvarint(dst, uint64(len(brKeys)))
	for _, k := range brKeys {
		dst = appendString(dst, k)
		dst = binary.AppendUvarint(dst, uint64(len(s.BackRefs[k])))
		for _, id := range s.BackRefs[k] {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
		}
	}
	return appendArcTrailer(dst, s.Arc)
}

func sortedKeys(m map[string]value.V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DecodeSnapshot deserializes an EncodeSnapshot record.
func DecodeSnapshot(src []byte) (*Snapshot, error) {
	var k snapKeeper
	arc, err := walkSnapshot(src, &k)
	if err != nil {
		return nil, err
	}
	return k.done(arc), nil
}

// RecordKind classifies an atom-layer heap record by its tag byte.
func RecordKind(data []byte) byte {
	if len(data) == 0 {
		return 0
	}
	return data[0]
}
