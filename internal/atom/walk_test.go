package atom

import (
	"bytes"
	"fmt"
	"testing"

	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// countSink keeps nothing: it counts what a walker reports.
type countSink struct {
	versions, snapshots, items int
	headerOnly                 bool
}

func (c *countSink) atom(value.ID, []byte, temporal.ElementWire, uint64) error { return nil }
func (c *countSink) entries(uint64)                                            {}
func (c *countSink) attr([]byte, bool, bool, uint64) error                     { return nil }
func (c *countSink) version(_, _ temporal.Interval, _ []byte) error            { c.versions++; return nil }
func (c *countSink) snapshot(snapHeader) (bool, error)                         { c.snapshots++; return !c.headerOnly, nil }
func (c *countSink) group(snapGroup, []byte, uint64) error                     { return nil }
func (c *countSink) item([]byte) error                                         { c.items++; return nil }

func atomVersions(a *Atom) (n int) {
	for _, ad := range a.Attrs {
		n += len(ad.Versions)
	}
	for _, vs := range a.BackRefs {
		n += len(vs)
	}
	return n
}

func snapshotItems(s *Snapshot) (n int) {
	n = len(s.Vals)
	for _, vs := range s.Sets {
		n += len(vs)
	}
	for _, ids := range s.BackRefs {
		n += len(ids)
	}
	return n
}

// walkSeeds returns one valid encoding of every record and chunk kind,
// exercising strings, sets, back-references, lifespans and arc trailers.
func walkSeeds() [][]byte {
	ver := func(from, to, tf, tto temporal.Instant, v value.V) Version {
		return Version{Valid: temporal.Interval{From: from, To: to}, Trans: temporal.Interval{From: tf, To: tto}, Val: v}
	}
	a := &Atom{
		ID: 7, Type: "Proj",
		Lifespan: temporal.NewElement(temporal.NewInterval(0, 40), temporal.Open(60)),
		Attrs: []AttrData{
			{Name: "title", Versions: []Version{
				ver(0, 20, 1, 5, value.String_("draft")),
				ver(0, temporal.Forever, 5, temporal.Forever, value.String_("tiering")),
			}},
			{Name: "members", Set: true, Versions: []Version{
				ver(3, temporal.Forever, 2, temporal.Forever, value.Ref(11)),
				ver(9, 30, 4, temporal.Forever, value.Ref(12)),
			}},
		},
		BackRefs: map[string][]Version{"Emp.proj": {ver(1, temporal.Forever, 3, temporal.Forever, value.Ref(21))}},
		Arc:      ArcPtr{Off: 4096, WM: 17},
	}
	entries := []HistoryEntry{
		{Attr: "title", Ver: a.Attrs[0].Versions[0]},
		{Attr: "Emp.proj", BackRef: true, Ver: a.BackRefs["Emp.proj"][0]},
		{Attr: "members", Ver: a.Attrs[1].Versions[1]},
	}
	snap := &Snapshot{
		ID: 9, Type: "Proj", ValidFrom: 10, TransFrom: 3, Prev: storage.RID{Page: 5, Slot: 2},
		Vals:     map[string]value.V{"title": value.String_("t"), "budget": value.Null},
		Sets:     map[string][]value.V{"members": {value.Ref(11), value.Ref(12)}, "reviewers": {}},
		BackRefs: map[string][]value.ID{"Emp.proj": {21, 22}},
	}
	boundary := *snap
	boundary.Prev, boundary.Deleted, boundary.Arc = storage.NilRID, true, ArcPtr{Off: 9000, WM: 4}
	return [][]byte{
		EncodeFull(a),
		EncodeCurrent(a, SepHeader{Head: storage.RID{Page: 3, Slot: 1}, HeadCount: 2, Watermark: 30}),
		EncodeSegment(storage.RID{Page: 2, Slot: 7}, entries),
		EncodeSnapshot(snap),
		EncodeSnapshot(&boundary),
		encodeArcAtomChunk(512, entries),
		encodeArcSnapChunk(0, []*Snapshot{&boundary, snap}),
	}
}

// walkBoth runs data through the walker of its kind twice — with a sink
// that keeps nothing, and through the materializing decoder — and returns
// both errors plus how many versions, snapshots or items each saw. (On
// fuzzed input the decoders' maps may collapse duplicate keys the walker
// reported separately; on valid encodings the counts are equal.)
func walkBoth(data []byte) (walkErr, decodeErr error, walked, decoded int) {
	var c countSink
	switch RecordKind(data) {
	case recFullAtom:
		_, walkErr = walkFull(data, &c)
		a, err := DecodeFull(data)
		if decodeErr = err; err == nil {
			decoded = atomVersions(a)
		}
		walked = c.versions
	case recCurrentAtom:
		_, _, walkErr = walkCurrent(data, &c)
		a, _, err := DecodeCurrent(data)
		if decodeErr = err; err == nil {
			decoded = atomVersions(a)
		}
		walked = c.versions
	case recHistorySeg:
		_, walkErr = walkSegment(data, &c)
		_, entries, err := DecodeSegment(data)
		decodeErr, walked, decoded = err, c.versions, len(entries)
	case arcAtomChunk:
		_, walkErr = walkArcAtomChunk(data, &c)
		_, entries, err := decodeArcAtomChunk(data)
		decodeErr, walked, decoded = err, c.versions, len(entries)
	case recSnapshot:
		_, walkErr = walkSnapshot(data, &c)
		s, err := DecodeSnapshot(data)
		if decodeErr = err; err == nil {
			decoded = snapshotItems(s)
		}
		walked = c.items
	case arcSnapChunk:
		_, walkErr = walkArcSnapChunk(data, &c)
		_, snaps, err := decodeArcSnapChunk(data)
		decodeErr, walked, decoded = err, c.snapshots, len(snaps)
	default:
		// No format claims this tag: every walker must refuse it.
		_, walkErr = walkFull(data, &c)
		_, _, e2 := walkCurrent(data, &c)
		_, e3 := walkSegment(data, &c)
		_, e4 := walkSnapshot(data, &c)
		_, e5 := walkArcAtomChunk(data, &c)
		_, e6 := walkArcSnapChunk(data, &c)
		for _, err := range []error{e2, e3, e4, e5, e6} {
			if err == nil {
				walkErr = nil
			}
		}
		decodeErr = fmt.Errorf("atom: not a full-atom record")
	}
	return walkErr, decodeErr, walked, decoded
}

// headMismatch runs data through readHead and through the decoder of its
// kind. readHead must refuse exactly what the decoder refuses, with the
// same error, and otherwise report the decoded surrogate, type, largest
// transaction instant and (for a snapshot) predecessor. It returns what
// differs, or "".
func headMismatch(data []byte) string {
	got, ok, err := readHead(data)
	want := head{kind: RecordKind(data)}
	var derr error
	atomHead := func(a *Atom) {
		want.id, want.typ = a.ID, a.Type
		for _, vs := range a.BackRefs {
			a.Attrs = append(a.Attrs, AttrData{Versions: vs})
		}
		for _, ad := range a.Attrs {
			for _, v := range ad.Versions {
				want.trans = max(want.trans, v.Trans.From)
				if v.Trans.To != temporal.Forever {
					want.trans = max(want.trans, v.Trans.To)
				}
			}
		}
	}
	switch want.kind {
	case recFullAtom:
		var a *Atom
		if a, derr = DecodeFull(data); derr == nil {
			atomHead(a)
		}
	case recCurrentAtom:
		var a *Atom
		if a, _, derr = DecodeCurrent(data); derr == nil {
			atomHead(a)
		}
	case recSnapshot:
		var s *Snapshot
		if s, derr = DecodeSnapshot(data); derr == nil {
			want.id, want.typ, want.trans, want.prev = s.ID, s.Type, s.TransFrom, s.Prev
		}
	default:
		if ok || err != nil {
			return fmt.Sprintf("kind %#x: ok %v, err %v; want no head", want.kind, ok, err)
		}
		return ""
	}
	switch {
	case !sameError(err, derr):
		return fmt.Sprintf("readHead %v, decoder %v", err, derr)
	case err == nil && (!ok || got != want):
		return fmt.Sprintf("head %+v (ok %v), decoded %+v", got, ok, want)
	}
	return ""
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestWalkersAgreeWithDecoders: on every valid encoding and every
// truncation of it, the walker and the decoder built on it accept or refuse
// together, with the same error, and see the same content; so do the head
// reader and the decoder.
func TestWalkersAgreeWithDecoders(t *testing.T) {
	for i, seed := range walkSeeds() {
		for cut := len(seed); cut >= 0; cut-- {
			data := seed[:cut]
			werr, derr, walked, decoded := walkBoth(data)
			if !sameError(werr, derr) {
				t.Fatalf("seed %d cut %d: walker %v, decoder %v", i, cut, werr, derr)
			}
			if werr == nil && walked != decoded {
				t.Fatalf("seed %d cut %d: walker saw %d, decoder kept %d", i, cut, walked, decoded)
			}
			if cut == len(seed) && (werr != nil || walked == 0) {
				t.Fatalf("seed %d: valid encoding: err %v, %d seen", i, werr, walked)
			}
			if d := headMismatch(data); d != "" {
				t.Fatalf("seed %d cut %d: %s", i, cut, d)
			}
		}
	}
}

// FuzzWalkRecord throws arbitrary bytes at the walkers. Whatever the input:
// no walker panics; a walker errs exactly when the materializing decoder of
// its format errs, with the same message; the head reader agrees with the
// decoders too; and the query reader, used as the walkers' sink, never
// panics either.
func FuzzWalkRecord(f *testing.F) {
	for _, seed := range walkSeeds() {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		flipped := bytes.Clone(seed)
		flipped[len(flipped)/3] ^= 0x5A
		f.Add(flipped)
	}
	// FuzzArchiveSegment's corpus: the block codec's payloads are chunks.
	f.Add([]byte("hello archive"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA1}, 100))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 1})

	m := newManager(f, StrategyEmbedded)
	f.Fuzz(func(t *testing.T, data []byte) {
		if werr, derr, _, _ := walkBoth(data); !sameError(werr, derr) {
			t.Fatalf("walker %v, decoder %v", werr, derr)
		}
		if d := headMismatch(data); d != "" {
			t.Fatal(d)
		}
		_, _ = walkSnapshot(data, &countSink{headerOnly: true})
		_, _ = walkArcSnapChunk(data, &countSink{headerOnly: true})
		for _, rs := range []*ReadSet{nil, {State: true, Attrs: []string{"title"}, Histories: []string{"members"}}} {
			newReader := func() *reader { return &reader{m: m, rs: rs, vt: 15, ett: 4, nextFrom: temporal.Forever} }
			_, _ = walkFull(data, newReader())
			_, _, _ = walkCurrent(data, newReader())
			_, _ = walkSnapshot(data, newReader())
			_, _ = walkArcSnapChunk(data, newReader())
			// Segments and chunks reach a reader already bound to a type.
			for _, walk := range []func([]byte, versionSink) error{
				func(d []byte, s versionSink) error { _, err := walkSegment(d, s); return err },
				func(d []byte, s versionSink) error { _, err := walkArcAtomChunk(d, s); return err },
			} {
				r := newReader()
				if r.bind(7, []byte("Proj")) == nil {
					_ = walk(data, r)
				}
			}
		}
	})
}
