package atom

import (
	"encoding/binary"
	"fmt"

	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Walkers: the one parser of each wire format. A walk function passes over
// a record in place and reports what it finds to a sink; it allocates
// nothing, and every byte slice it hands the sink aliases the record, valid
// only until the sink method returns. The Decode* functions are these
// walkers with a sink that keeps everything; the query reader (read.go) is
// the same walkers with a sink that keeps what a read set names. A walker
// validates everything it walks over, whatever the sink keeps, so both report
// the same malformed input with the same error (the one thing a sink can
// make it skip unvalidated is a snapshot body it declines).

// versionSink receives attribute-tagged versions: the content of full and
// current atom records, history segments and atom archive chunks.
type versionSink interface {
	// atom reports an atom body's header (full and current records only);
	// attrs attributes follow.
	atom(id value.ID, typ []byte, life temporal.ElementWire, attrs uint64) error
	// entries reports how many (attr, version) pairs a segment or chunk
	// holds, before the first.
	entries(n uint64)
	// attr announces whose n versions follow: an attribute's, or a
	// back-reference key's. set is meaningful in atom bodies only; segment
	// and chunk entries do not record it. Counts are capacity hints the
	// walker has already checked against the bytes left.
	attr(name []byte, set, backRef bool, n uint64) error
	// version reports one version of what attr last announced; val is the
	// value's AppendRecord encoding.
	version(valid, trans temporal.Interval, val []byte) error
}

func splitString(src []byte) ([]byte, int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 || n > uint64(len(src)-sz) {
		return nil, 0, fmt.Errorf("atom: corrupt string encoding")
	}
	return src[sz : sz+int(n)], sz + int(n), nil
}

func walkVersion(src []byte, s versionSink) (int, error) {
	const stamps = 2 * temporal.IntervalWireSize
	if len(src) < stamps {
		return 0, fmt.Errorf("atom: short version encoding")
	}
	valid, err := temporal.DecodeInterval(src)
	if err != nil {
		return 0, err
	}
	trans, err := temporal.DecodeInterval(src[temporal.IntervalWireSize:])
	if err != nil {
		return 0, err
	}
	n, err := value.RecordSize(src[stamps:])
	if err != nil {
		return 0, err
	}
	return stamps + n, s.version(valid, trans, src[stamps:stamps+n])
}

// minVersionWire is the shortest version encoding: two stamps and a Null.
const minVersionWire = 2*temporal.IntervalWireSize + 1

// walkVersions walks the counted version list of the attribute (or
// back-reference key) name.
func walkVersions(src []byte, s versionSink, name []byte, set, backRef bool) (int, error) {
	n, off := binary.Uvarint(src)
	if off <= 0 || n > uint64(len(src)-off)/minVersionWire {
		return 0, fmt.Errorf("atom: corrupt version count")
	}
	if err := s.attr(name, set, backRef, n); err != nil {
		return 0, err
	}
	for i := uint64(0); i < n; i++ {
		vn, err := walkVersion(src[off:], s)
		if err != nil {
			return 0, err
		}
		off += vn
	}
	return off, nil
}

// walkAtomBody walks the part full and current records share: surrogate,
// type, lifespan, attribute histories, back-references.
func walkAtomBody(src []byte, s versionSink) (int, error) {
	if len(src) < 8 {
		return 0, fmt.Errorf("atom: short atom body")
	}
	id := value.ID(binary.LittleEndian.Uint64(src))
	off := 8
	typ, n, err := splitString(src[off:])
	if err != nil {
		return 0, err
	}
	off += n
	life, n, err := temporal.SplitElement(src[off:])
	if err != nil {
		return 0, err
	}
	off += n
	// An attribute is at least a name length, a flags byte and a count.
	attrCount, sz := binary.Uvarint(src[off:])
	if sz <= 0 || attrCount > uint64(len(src)-off-sz)/3 {
		return 0, fmt.Errorf("atom: corrupt attribute count")
	}
	off += sz
	if err := s.atom(id, typ, life, attrCount); err != nil {
		return 0, err
	}
	for i := uint64(0); i < attrCount; i++ {
		name, n, err := splitString(src[off:])
		if err != nil {
			return 0, err
		}
		off += n
		if off >= len(src) {
			return 0, fmt.Errorf("atom: truncated attribute flags")
		}
		flags := src[off]
		off++
		if n, err = walkVersions(src[off:], s, name, flags&0x01 != 0, false); err != nil {
			return 0, err
		}
		off += n
	}
	brCount, sz := binary.Uvarint(src[off:])
	if sz <= 0 {
		return 0, fmt.Errorf("atom: corrupt back-ref count")
	}
	off += sz
	for i := uint64(0); i < brCount; i++ {
		key, n, err := splitString(src[off:])
		if err != nil {
			return 0, err
		}
		off += n
		if n, err = walkVersions(src[off:], s, key, true, true); err != nil {
			return 0, err
		}
		off += n
	}
	return off, nil
}

// walkFull walks an EncodeFull record.
func walkFull(src []byte, s versionSink) (ArcPtr, error) {
	if len(src) == 0 || src[0] != recFullAtom {
		return ArcPtr{}, fmt.Errorf("atom: not a full-atom record")
	}
	n, err := walkAtomBody(src[1:], s)
	if err != nil {
		return ArcPtr{}, err
	}
	return decodeArcTrailer(src[1+n:])
}

// walkCurrent walks an EncodeCurrent record.
func walkCurrent(src []byte, s versionSink) (SepHeader, ArcPtr, error) {
	if len(src) < 21 || src[0] != recCurrentAtom {
		return SepHeader{}, ArcPtr{}, fmt.Errorf("atom: not a current-atom record")
	}
	var h SepHeader
	h.Head = storage.UnpackRID(binary.LittleEndian.Uint64(src[1:]))
	h.HeadCount = binary.LittleEndian.Uint32(src[9:])
	wm, err := temporal.DecodeInstant(src[13:])
	if err != nil {
		return SepHeader{}, ArcPtr{}, err
	}
	h.Watermark = wm
	n, err := walkAtomBody(src[21:], s)
	if err != nil {
		return SepHeader{}, ArcPtr{}, err
	}
	arc, err := decodeArcTrailer(src[21+n:])
	return h, arc, err
}

// walkEntries walks the attribute-tagged version list that history segments
// and atom archive chunks share; what names the container in errors.
func walkEntries(src []byte, s versionSink, what string) error {
	// An entry is at least a name length, a flags byte and a version.
	n, off := binary.Uvarint(src)
	if off <= 0 || n > uint64(len(src)-off)/(2+minVersionWire) {
		return fmt.Errorf("atom: corrupt %s count", what)
	}
	s.entries(n)
	for i := uint64(0); i < n; i++ {
		name, sn, err := splitString(src[off:])
		if err != nil {
			return err
		}
		off += sn
		if off >= len(src) {
			return fmt.Errorf("atom: truncated %s entry", what)
		}
		flags := src[off]
		off++
		if err := s.attr(name, false, flags&0x01 != 0, 1); err != nil {
			return err
		}
		vn, err := walkVersion(src[off:], s)
		if err != nil {
			return err
		}
		off += vn
	}
	return nil
}

// walkSegment walks an EncodeSegment record, returning the link to the
// previous (older) segment.
func walkSegment(src []byte, s versionSink) (storage.RID, error) {
	if len(src) < 9 || src[0] != recHistorySeg {
		return storage.NilRID, fmt.Errorf("atom: not a history segment")
	}
	prev := storage.UnpackRID(binary.LittleEndian.Uint64(src[1:]))
	return prev, walkEntries(src[9:], s, "segment")
}

// walkArcAtomChunk walks an atom archive chunk, returning the offset of the
// previous (older) chunk.
func walkArcAtomChunk(src []byte, s versionSink) (uint64, error) {
	if len(src) < 9 || src[0] != arcAtomChunk {
		return 0, fmt.Errorf("atom: not an atom archive chunk")
	}
	return binary.LittleEndian.Uint64(src[1:]), walkEntries(src[9:], s, "archive chunk")
}

// snapHeader is a snapshot record's fixed header.
type snapHeader struct {
	ID        value.ID
	Type      []byte
	ValidFrom temporal.Instant
	TransFrom temporal.Instant
	Deleted   bool
	Prev      storage.RID
}

// snapGroup says what the items of a snapshot group are.
type snapGroup uint8

const (
	snapVal     snapGroup = iota // one plain attribute value
	snapSet                      // the members of one set attribute
	snapBackRef                  // the sources of one back-reference key
)

var snapGroupNames = [...]string{snapVal: "value", snapSet: "set", snapBackRef: "backref"}

// snapSink receives whole-state snapshots: tuple heap records and the
// entries of snapshot archive chunks.
type snapSink interface {
	// snapshot reports the fixed header. Returning false ends the walk of
	// this snapshot there: its body is neither parsed nor validated, and the
	// archive pointer behind it is not found.
	snapshot(h snapHeader) (body bool, err error)
	// group announces the n items that follow (n is a capacity hint the
	// walker has already checked against the bytes left).
	group(kind snapGroup, name []byte, n uint64) error
	// item reports one item of the group last announced: a value's
	// AppendRecord encoding or, in a back-reference group, the source's
	// 8-byte little-endian surrogate.
	item(raw []byte) error
}

// walkSnapshot walks an EncodeSnapshot record.
func walkSnapshot(src []byte, s snapSink) (ArcPtr, error) {
	if len(src) < 9 || src[0] != recSnapshot {
		return ArcPtr{}, fmt.Errorf("atom: not a snapshot record")
	}
	h := snapHeader{ID: value.ID(binary.LittleEndian.Uint64(src[1:]))}
	off := 9
	typ, n, err := splitString(src[off:])
	if err != nil {
		return ArcPtr{}, err
	}
	h.Type = typ
	off += n
	if h.ValidFrom, err = temporal.DecodeInstant(src[off:]); err != nil {
		return ArcPtr{}, err
	}
	off += temporal.InstantWireSize
	if h.TransFrom, err = temporal.DecodeInstant(src[off:]); err != nil {
		return ArcPtr{}, err
	}
	off += temporal.InstantWireSize
	if off >= len(src) {
		return ArcPtr{}, fmt.Errorf("atom: truncated snapshot")
	}
	h.Deleted = src[off] == 1
	off++
	if off+8 > len(src) {
		return ArcPtr{}, fmt.Errorf("atom: truncated snapshot prev pointer")
	}
	h.Prev = storage.UnpackRID(binary.LittleEndian.Uint64(src[off:]))
	off += 8
	if body, err := s.snapshot(h); err != nil || !body {
		return ArcPtr{}, err
	}

	// Three sections in turn — plain values, sets, back-references — each a
	// counted list of (key, items); a plain value is its key's one item.
	for kind := snapVal; kind <= snapBackRef; kind++ {
		groups, sz := binary.Uvarint(src[off:])
		if sz <= 0 {
			return ArcPtr{}, fmt.Errorf("atom: corrupt snapshot %s count", snapGroupNames[kind])
		}
		off += sz
		for i := uint64(0); i < groups; i++ {
			key, n, err := splitString(src[off:])
			if err != nil {
				return ArcPtr{}, err
			}
			off += n
			items, itemMin := uint64(1), uint64(1)
			if kind == snapBackRef {
				itemMin = 8
			}
			if kind != snapVal {
				if items, sz = binary.Uvarint(src[off:]); sz <= 0 || items > uint64(len(src)-off-sz)/itemMin {
					return ArcPtr{}, fmt.Errorf("atom: corrupt snapshot %s size", snapGroupNames[kind])
				}
				off += sz
			}
			if err := s.group(kind, key, items); err != nil {
				return ArcPtr{}, err
			}
			for j := uint64(0); j < items; j++ {
				n := 8
				if kind != snapBackRef {
					if n, err = value.RecordSize(src[off:]); err != nil {
						return ArcPtr{}, err
					}
				} else if off+8 > len(src) {
					return ArcPtr{}, fmt.Errorf("atom: truncated snapshot backref")
				}
				if err := s.item(src[off : off+n]); err != nil {
					return ArcPtr{}, err
				}
				off += n
			}
		}
	}
	return decodeArcTrailer(src[off:])
}

// walkArcSnapChunk walks a snapshot archive chunk — whole snapshots,
// newest-first, each length-prefixed, which is what lets a sink that
// declines a body step over it — returning the offset of the previous
// (older) chunk.
func walkArcSnapChunk(src []byte, s snapSink) (uint64, error) {
	if len(src) < 9 || src[0] != arcSnapChunk {
		return 0, fmt.Errorf("atom: not a snapshot archive chunk")
	}
	prevOff := binary.LittleEndian.Uint64(src[1:])
	off := 9
	n, sz := binary.Uvarint(src[off:])
	if sz <= 0 {
		return 0, fmt.Errorf("atom: corrupt archive chunk count")
	}
	off += sz
	for i := uint64(0); i < n; i++ {
		bl, sz := binary.Uvarint(src[off:])
		if sz <= 0 || bl > uint64(len(src)-off-sz) {
			return 0, fmt.Errorf("atom: corrupt archived snapshot length")
		}
		off += sz
		if _, err := walkSnapshot(src[off:off+int(bl)], s); err != nil {
			return 0, err
		}
		off += int(bl)
	}
	return prevOff, nil
}

// --- Keep-everything sinks: the Decode* functions -----------------------

// atomKeeper materializes an atom body. The atom lives inside the keeper so
// that one allocation serves both.
type atomKeeper struct {
	a   Atom
	cur *[]Version // where version() appends
	key string     // back-reference key being filled ("" = an attribute)
	br  []Version  // its versions: a map element is not addressable
}

func (k *atomKeeper) atom(id value.ID, typ []byte, life temporal.ElementWire, attrs uint64) error {
	k.a = Atom{ID: id, Type: string(typ), Lifespan: life.Decode(),
		Attrs: make([]AttrData, 0, attrs), BackRefs: map[string][]Version{}}
	return nil
}

func (k *atomKeeper) entries(uint64) {}

func (k *atomKeeper) attr(name []byte, set, backRef bool, n uint64) error {
	k.flush()
	if backRef {
		k.key, k.br, k.cur = string(name), make([]Version, 0, n), &k.br
		return nil
	}
	k.a.Attrs = append(k.a.Attrs, AttrData{Name: string(name), Set: set, Versions: make([]Version, 0, n)})
	k.cur = &k.a.Attrs[len(k.a.Attrs)-1].Versions
	return nil
}

// flush lands the back-reference key being filled in the atom's map.
func (k *atomKeeper) flush() {
	if k.key != "" {
		k.a.BackRefs[k.key] = k.br
		k.key = ""
	}
}

// done returns the atom once the walk has ended.
func (k *atomKeeper) done(arc ArcPtr) *Atom {
	k.flush()
	k.a.Arc = arc
	return &k.a
}

func (k *atomKeeper) version(valid, trans temporal.Interval, val []byte) error {
	v, _, err := value.DecodeRecord(val)
	if err != nil {
		return err
	}
	*k.cur = append(*k.cur, Version{Valid: valid, Trans: trans, Val: v})
	return nil
}

// entryKeeper materializes segment or chunk entries.
type entryKeeper struct {
	kept    []HistoryEntry
	name    string
	backRef bool
}

func (k *entryKeeper) atom(value.ID, []byte, temporal.ElementWire, uint64) error { return nil }

func (k *entryKeeper) entries(n uint64) { k.kept = make([]HistoryEntry, 0, n) }

func (k *entryKeeper) attr(name []byte, _, backRef bool, _ uint64) error {
	k.name, k.backRef = string(name), backRef
	return nil
}

func (k *entryKeeper) version(valid, trans temporal.Interval, val []byte) error {
	v, _, err := value.DecodeRecord(val)
	if err != nil {
		return err
	}
	k.kept = append(k.kept, HistoryEntry{Attr: k.name, BackRef: k.backRef,
		Ver: Version{Valid: valid, Trans: trans, Val: v}})
	return nil
}

// snapKeeper materializes snapshots: one (s) or, walking an archive chunk,
// each in turn (all).
type snapKeeper struct {
	s     *Snapshot
	chunk bool // collect every snapshot walked in all
	all   []*Snapshot
	// The group being filled lands in its map at the next group or snapshot,
	// or at done.
	kind snapGroup
	name string
	vals []value.V
	ids  []value.ID
}

func (k *snapKeeper) snapshot(h snapHeader) (bool, error) {
	k.flush()
	k.s = &Snapshot{
		ID: h.ID, Type: string(h.Type), ValidFrom: h.ValidFrom, TransFrom: h.TransFrom,
		Deleted: h.Deleted, Prev: h.Prev,
		Vals: map[string]value.V{}, Sets: map[string][]value.V{}, BackRefs: map[string][]value.ID{},
	}
	if k.chunk {
		k.all = append(k.all, k.s)
	}
	return true, nil
}

func (k *snapKeeper) group(kind snapGroup, name []byte, n uint64) error {
	k.flush()
	k.kind, k.name = kind, string(name)
	switch kind {
	case snapSet:
		k.vals = make([]value.V, 0, n)
	case snapBackRef:
		k.ids = make([]value.ID, 0, n)
	}
	return nil
}

func (k *snapKeeper) flush() {
	switch {
	case k.s == nil:
	case k.kind == snapSet:
		k.s.Sets[k.name] = k.vals
	case k.kind == snapBackRef:
		k.s.BackRefs[k.name] = k.ids
	}
	k.kind = snapVal
}

// done returns the last snapshot walked once the walk has ended.
func (k *snapKeeper) done(arc ArcPtr) *Snapshot {
	k.flush()
	k.s.Arc = arc
	return k.s
}

func (k *snapKeeper) item(raw []byte) error {
	if k.kind == snapBackRef {
		k.ids = append(k.ids, value.ID(binary.LittleEndian.Uint64(raw)))
		return nil
	}
	v, _, err := value.DecodeRecord(raw)
	if err != nil {
		return err
	}
	if k.kind == snapSet {
		k.vals = append(k.vals, v)
	} else {
		k.s.Vals[k.name] = v
	}
	return nil
}

// --- The head reader: what indexing reads of a record --------------------

// head is what indexing needs of an atom's home record: its surrogate, its
// type and the largest transaction instant bound inside it (the clock
// low-water mark the record implies). kind is the record's tag byte; prev
// is a snapshot's predecessor in its atom's chain.
type head struct {
	kind  byte
	id    value.ID
	typ   string
	trans temporal.Instant
	prev  storage.RID
}

// headReader is the walkers' sink that reads a head. It keeps no version
// and builds no atom, but it declines no snapshot body, so a record it
// accepts is one DecodeFull, DecodeCurrent or DecodeSnapshot accepts.
type headReader struct{ h head }

func (r *headReader) atom(id value.ID, typ []byte, _ temporal.ElementWire, _ uint64) error {
	r.h.id, r.h.typ = id, string(typ)
	return nil
}

func (r *headReader) entries(uint64) {}

func (r *headReader) attr([]byte, bool, bool, uint64) error { return nil }

func (r *headReader) version(_, trans temporal.Interval, _ []byte) error {
	r.h.trans = max(r.h.trans, trans.From)
	if trans.To != temporal.Forever {
		r.h.trans = max(r.h.trans, trans.To)
	}
	return nil
}

func (r *headReader) snapshot(h snapHeader) (bool, error) {
	r.h.id, r.h.typ, r.h.trans, r.h.prev = h.ID, string(h.Type), h.TransFrom, h.Prev
	return true, nil
}

func (r *headReader) group(snapGroup, []byte, uint64) error { return nil }

func (r *headReader) item([]byte) error { return nil }

// readHead reads the head of a heap record. ok is false for a record that
// is no atom's home record: a history segment, reached through its atom's
// current record, or a record of another layer (the engine's catalog).
func readHead(data []byte) (h head, ok bool, err error) {
	r := headReader{h: head{kind: RecordKind(data)}}
	switch r.h.kind {
	case recFullAtom:
		_, err = walkFull(data, &r)
	case recCurrentAtom:
		_, _, err = walkCurrent(data, &r)
	case recSnapshot:
		_, err = walkSnapshot(data, &r)
	default:
		return r.h, false, nil
	}
	if err != nil {
		return head{}, false, err
	}
	return r.h, true, nil
}
