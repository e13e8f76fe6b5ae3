package atom

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"tcodm/internal/obs"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// State is an atom's materialized state at one (valid, transaction) time
// point: the answer to a time-slice of a single atom.
type State struct {
	ID       value.ID
	Type     string
	Alive    bool
	Vals     map[string]value.V
	Sets     map[string][]value.V
	BackRefs map[string][]value.ID
}

// SetIDs returns the set attribute's members as IDs (reference sets).
func (s *State) SetIDs(attr string) []value.ID {
	vs := s.Sets[attr]
	out := make([]value.ID, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.AsID())
	}
	return out
}

// Now is the transaction-time argument meaning "the latest recorded state".
const Now = temporal.Forever - 1

// effectiveTT maps the Now sentinel onto an instant beyond every recorded
// transaction time.
func effectiveTT(tt temporal.Instant) temporal.Instant {
	if tt == Now {
		return temporal.Forever - 1
	}
	return tt
}

// ReadSet says what one Read must keep of an atom; everything else in the
// stored records is passed over where it lies. A nil *ReadSet keeps
// everything: the full state, every attribute's history and the lifespan.
type ReadSet struct {
	// State asks for the state at (vt, tt): Alive, and the values (set
	// members, for many-references) of Attrs. AllAttrs widens that to every
	// schema attribute plus all back-references — the State the public
	// StateAt returns and molecules are built from.
	State    bool
	AllAttrs bool
	Attrs    []string
	// Histories names the attributes whose valid-time history as recorded
	// at tt is wanted.
	Histories []string
	// Lifespan asks for the atom's existence element.
	Lifespan bool
}

// AttrHistory is one attribute's valid-time history as recorded at one
// transaction time: the visible versions ordered by valid start.
type AttrHistory struct {
	Attr     string
	Versions []Version
}

// Reading is what one Read kept. A State it holds carries exactly the
// attributes the read set named: a key missing from Vals and Sets was not
// asked for.
type Reading struct {
	State     *State           // nil unless asked for
	Histories []AttrHistory    // in ReadSet.Histories order (schema order for a nil read set)
	Lifespan  temporal.Element // nil unless asked for
}

// History returns the history the reading holds for attr; ok is false when
// the read set did not ask for it.
func (r *Reading) History(attr string) ([]Version, bool) {
	for i := range r.Histories {
		if r.Histories[i].Attr == attr {
			return r.Histories[i].Versions, true
		}
	}
	return nil, false
}

var (
	readState    = &ReadSet{State: true, AllAttrs: true}
	readLifespan = &ReadSet{Lifespan: true}
)

// StateAt materializes atom id at valid time vt as recorded at transaction
// time tt (use Now for the latest state).
func (m *Manager) StateAt(id value.ID, vt, tt temporal.Instant) (*State, error) {
	return m.StateAtAcc(id, vt, tt, nil)
}

// StateAtAcc is StateAt with exact resource accounting (see Read).
func (m *Manager) StateAtAcc(id value.ID, vt, tt temporal.Instant, acc *obs.Resources) (*State, error) {
	rd, err := m.Read(id, readState, vt, tt, acc)
	return rd.State, err
}

// History returns the valid-time history of an attribute as recorded at
// transaction time tt: visible versions ordered by valid start. History at
// tt at or above the archive watermark is answered entirely from the hot
// store; only questions reaching below it pay for archive reads.
func (m *Manager) History(id value.ID, attr string, tt temporal.Instant) ([]Version, error) {
	rd, err := m.Read(id, &ReadSet{Histories: []string{attr}}, temporal.Beginning, tt, nil)
	if err != nil {
		return nil, err
	}
	return rd.Histories[0].Versions, nil
}

// Lifespan returns the atom's existence element.
func (m *Manager) Lifespan(id value.ID) (temporal.Element, error) {
	rd, err := m.Read(id, readLifespan, temporal.Beginning, Now, nil)
	return rd.Lifespan, err
}

// Read is the one query-time reader: it visits atom id's stored records in
// place — each a view of its pinned buffer-pool frame, released before Read
// returns on every path — and keeps only what rs names, at valid time vt as
// recorded at transaction time tt. Nothing it returns aliases a frame:
// numbers are decoded and strings copied for exactly the versions kept.
//
// How far it reads depends on the placement:
//   - embedded: the one record; the archive chain only when tt reaches below
//     the atom's archive watermark.
//   - separated: the current record, which answers alone when no history is
//     wanted and the question is about the live open-ended present
//     (tt == Now, vt at or after the watermark and after every current
//     version's start); otherwise on down the segment chain, then the
//     archive chain under the same watermark rule.
//   - tuple: the snapshot chain newest-first, reading only the fixed header
//     of snapshots that cannot contribute and stopping at the snapshot in
//     force unless histories or the lifespan need the rest.
//
// Pages, chain steps and archive blocks are charged to acc (nil =
// uncharged). The charge is a deterministic function of the atom's stored
// layout, rs and (vt, tt) — never of buffer-pool state or of which goroutine
// runs the read — so serial and parallel executions of one query account
// identical totals.
func (m *Manager) Read(id value.ID, rs *ReadSet, vt, tt temporal.Instant, acc *obs.Resources) (Reading, error) {
	var start time.Time
	if m.met.decodeNS != nil {
		start = time.Now()
	}
	rid, err := m.homeRID(id)
	if err != nil {
		return Reading{}, err
	}
	r := &reader{m: m, rs: rs, vt: vt, ett: effectiveTT(tt), acc: acc}
	switch m.opts.Strategy {
	case StrategyEmbedded:
		err = r.readEmbedded(rid)
	case StrategySeparated:
		err = r.readSeparated(rid)
	case StrategyTuple:
		err = r.readTuple(rid)
	default:
		err = fmt.Errorf("atom: unknown strategy %d", m.opts.Strategy)
	}
	if err != nil {
		return Reading{}, err
	}
	if r.leftHome {
		m.met.fullLoads.Inc()
		m.met.chainDepth.Record(r.depth)
	} else {
		m.met.fastLoads.Inc()
	}
	rd := r.reading()
	if !start.IsZero() {
		m.met.decodeNS.Observe(time.Since(start))
	}
	return rd, nil
}

// attrSlot is what the reader wants and has so far of one schema attribute.
type attrSlot struct {
	val      bool      // value (plain) or members (set) at (vt, tt) wanted
	hist     bool      // history at tt wanted
	set      bool      // many-reference
	v        value.V   // the visible value
	members  []value.V // the visible members
	versions []Version // history versions, in stored order until finished
}

// reader is one Read in progress. It is the sink of every walker.
type reader struct {
	m       *Manager
	rs      *ReadSet
	vt, ett temporal.Instant
	acc     *obs.Resources

	// Bound by the first record header seen.
	id           value.ID
	t            *schema.AtomType
	slots        []attrSlot // one per schema attribute, in schema order
	wantVersions bool       // some value, history or back-reference is wanted

	// What arrives next belongs to: an attribute slot (nil = unwanted), or,
	// when inBackRef, the back-reference key brKey (brName once a version of
	// it was kept).
	cur       *attrSlot
	lastAttr  int // index of the attribute slot() matched last
	inBackRef bool
	brKey     []byte
	brName    string

	alive    bool
	life     temporal.Element
	backRefs map[string][]value.ID

	leftHome bool   // a record beyond the home record was read
	depth    uint64 // segments, chunks or snapshots walked

	// Separated: inCurrent while the current record is walked; covers stays
	// true while every version in it starts at or before vt.
	inCurrent bool
	covers    bool

	// Tuple.
	inArchive bool
	found     bool             // the snapshot in force at (vt, tt) was seen
	keepState bool             // the snapshot being walked is that snapshot
	keepHist  bool             // the snapshot being walked is a history step...
	step      Version          // ...with this validity and recording time
	nextFrom  temporal.Instant // valid start of the nearest newer snapshot visible at tt
	prev      storage.RID
	lifeSteps []lifeStep // every snapshot walked, newest-first
}

type lifeStep struct {
	from    temporal.Instant
	deleted bool
}

func (r *reader) wantState() bool    { return r.rs == nil || r.rs.State }
func (r *reader) wantBackRefs() bool { return r.rs == nil || (r.rs.State && r.rs.AllAttrs) }
func (r *reader) wantLife() bool     { return r.rs == nil || r.rs.Lifespan }
func (r *reader) wantHist() bool     { return r.rs == nil || len(r.rs.Histories) > 0 }

// bind resolves the read set against the atom's type, named by the first
// record header. Names are matched to the schema's own strings, so nothing
// is allocated per record.
func (r *reader) bind(id value.ID, typ []byte) error {
	t, ok := r.m.schema.AtomTypeBytes(typ)
	if !ok {
		return fmt.Errorf("atom: stored atom %v has unknown type %q", id, typ)
	}
	r.id, r.t = id, t
	r.slots = make([]attrSlot, len(t.Attrs))
	all := r.rs == nil
	fullState := r.wantBackRefs() // every attribute comes with the back-references
	for i, at := range t.Attrs {
		r.slots[i] = attrSlot{set: at.IsRef() && at.Card == schema.Many, val: fullState, hist: all}
	}
	if !all {
		if r.rs.State {
			for _, name := range r.rs.Attrs {
				i := t.AttrIndex(name)
				if i < 0 {
					return fmt.Errorf("atom: %s has no attribute %q", t.Name, name)
				}
				r.slots[i].val = true
			}
		}
		for _, name := range r.rs.Histories {
			i := t.AttrIndex(name)
			if i < 0 {
				return fmt.Errorf("atom: %s has no attribute %q", t.Name, name)
			}
			r.slots[i].hist = true
		}
	}
	r.wantVersions = r.wantBackRefs()
	for i := range r.slots {
		if r.slots[i].val || r.slots[i].hist {
			r.wantVersions = true
		}
	}
	return nil
}

// --- versionSink: embedded, separated and atom archive chunks ------------

func (r *reader) atom(id value.ID, typ []byte, life temporal.ElementWire, _ uint64) error {
	if err := r.bind(id, typ); err != nil {
		return err
	}
	r.alive = life.Contains(r.vt)
	if r.wantLife() {
		r.life = life.Decode()
	}
	return nil
}

func (r *reader) entries(uint64) {}

func (r *reader) attr(name []byte, _, backRef bool, _ uint64) error {
	r.cur, r.inBackRef = nil, backRef
	if backRef {
		r.brKey, r.brName = name, ""
		return nil
	}
	s, err := r.slot(name)
	r.cur = s
	return err
}

// slot returns the named attribute's slot, nil when nothing of it is wanted.
func (r *reader) slot(name []byte) (*attrSlot, error) {
	// Runs of entries name the same attribute: try the last match first.
	i := r.lastAttr
	if i >= len(r.slots) || string(name) != r.t.Attrs[i].Name {
		if i = r.t.AttrIndexBytes(name); i < 0 {
			return nil, fmt.Errorf("atom: stored %s record names unknown attribute %q", r.t.Name, name)
		}
		r.lastAttr = i
	}
	if s := &r.slots[i]; s.val || s.hist {
		return s, nil
	}
	return nil, nil
}

func (r *reader) version(valid, trans temporal.Interval, val []byte) error {
	if r.inCurrent && valid.From > r.vt {
		r.covers = false
	}
	if !trans.Contains(r.ett) {
		return nil
	}
	visible := valid.Contains(r.vt)
	if r.inBackRef {
		if !visible || !r.wantBackRefs() {
			return nil
		}
		v, _, err := value.DecodeRecord(val)
		if err != nil {
			return err
		}
		return r.keepBackRef(v)
	}
	s := r.cur
	if s == nil || !(s.hist || (s.val && visible)) {
		return nil
	}
	v, _, err := value.DecodeRecord(val)
	if err != nil {
		return err
	}
	if s.hist {
		s.versions = append(s.versions, Version{Valid: valid, Trans: trans, Val: v})
	}
	if s.val && visible {
		// Versions live at one transaction time have disjoint validity, so
		// at most one is visible; were there two, the later-stored one wins
		// as it always has.
		if s.set {
			s.members = append(s.members, v)
		} else {
			s.v = v
		}
	}
	return nil
}

func (r *reader) keepBackRef(v value.V) error {
	if v.Kind() != value.KindID {
		return fmt.Errorf("atom: back-reference %q of %v holds a %s, not a reference", r.brKey, r.id, v.Kind())
	}
	if r.brName == "" {
		r.brName = string(r.brKey)
	}
	if r.backRefs == nil {
		r.backRefs = map[string][]value.ID{}
	}
	r.backRefs[r.brName] = append(r.backRefs[r.brName], v.AsID())
	return nil
}

func (r *reader) readEmbedded(rid storage.RID) error {
	var arc ArcPtr
	err := r.m.heap.View(rid, r.acc, func(data []byte) (err error) {
		arc, err = walkFull(data, r)
		return err
	})
	if err != nil {
		return err
	}
	return r.readArchive(arc)
}

func (r *reader) readSeparated(rid storage.RID) error {
	var hdr SepHeader
	var arc ArcPtr
	r.inCurrent, r.covers = true, true
	err := r.m.heap.View(rid, r.acc, func(data []byte) (err error) {
		hdr, arc, err = walkCurrent(data, r)
		return err
	})
	r.inCurrent = false
	if err != nil || !r.wantVersions {
		return err
	}
	// The current record answers alone iff no history is wanted and the
	// question is about the latest recorded state at a valid time every
	// current-shaped version — wanted or not — already covers.
	if !r.wantHist() && r.ett == Now && r.vt >= hdr.Watermark && r.covers {
		return nil
	}
	for seg := hdr.Head; seg.IsValid(); {
		r.leftHome = true
		r.depth++
		r.m.met.segmentReads.Inc()
		r.acc.Add(obs.Resources{ChainSteps: 1})
		err := r.m.heap.View(seg, r.acc, func(data []byte) (err error) {
			seg, err = walkSegment(data, r)
			return err
		})
		if err != nil {
			return err
		}
	}
	return r.readArchive(arc)
}

// readArchive continues an embedded or separated read through the atom's
// archive chunks when the question reaches below the archive watermark. A
// chunk costs what a history segment does, minus the random heap I/O.
func (r *reader) readArchive(arc ArcPtr) error {
	if !r.wantVersions || !arcNeeded(arc, r.ett) {
		return nil
	}
	if r.m.arc == nil {
		return errNoArchive
	}
	for off := arc.Off; off != 0; {
		r.leftHome = true
		r.depth++
		payload, err := r.m.arc.ReadBlock(off, r.acc)
		if err != nil {
			return err
		}
		if off, err = walkArcAtomChunk(payload, r); err != nil {
			return err
		}
		r.m.met.segmentReads.Inc()
		r.acc.Add(obs.Resources{ChainSteps: 1})
	}
	return nil
}

// --- snapSink: tuple heap records and snapshot archive chunks --------------

// unmet reports whether the snapshot walk has more to find: the lifespan
// and histories need every snapshot, the state only the one in force.
func (r *reader) unmet() bool {
	return r.wantLife() || r.wantHist() || (r.wantState() && !r.found)
}

func (r *reader) snapshot(h snapHeader) (bool, error) {
	if r.t == nil {
		if err := r.bind(h.ID, h.Type); err != nil {
			return false, err
		}
		r.nextFrom = temporal.Forever
	} else if !r.unmet() {
		return false, nil // the rest of an archive chunk already answered
	}
	r.depth++
	r.m.met.snapshotHops.Inc()
	r.acc.Add(obs.Resources{ChainSteps: 1})
	r.prev = h.Prev
	if r.wantLife() {
		r.lifeSteps = append(r.lifeSteps, lifeStep{h.ValidFrom, h.Deleted})
	}
	visible := h.TransFrom <= r.ett
	r.keepState = r.wantState() && !r.found && visible && h.ValidFrom <= r.vt
	if r.keepState {
		r.found, r.alive = true, !h.Deleted
	}
	r.keepHist = false
	if visible && r.wantHist() {
		// The snapshot's values hold until the nearest newer snapshot
		// visible at tt takes over; a deletion takes over without values.
		r.step = Version{Valid: temporal.Interval{From: h.ValidFrom, To: r.nextFrom}, Trans: temporal.Open(h.TransFrom)}
		r.nextFrom = h.ValidFrom
		r.keepHist = !h.Deleted && !r.step.Valid.IsEmpty()
	}
	// The oldest hot snapshot's body hides the archive pointer behind it.
	return r.keepState || r.keepHist || (!r.inArchive && !h.Prev.IsValid()), nil
}

func (r *reader) group(kind snapGroup, name []byte, _ uint64) error {
	r.cur, r.inBackRef = nil, false
	if kind == snapBackRef {
		if r.keepState && r.wantBackRefs() {
			r.inBackRef, r.brKey, r.brName = true, name, ""
		}
		return nil
	}
	s, err := r.slot(name)
	if err != nil || s == nil {
		return err
	}
	if (s.val && r.keepState) || (s.hist && r.keepHist) {
		r.cur = s
	}
	return nil
}

func (r *reader) item(raw []byte) error {
	if r.inBackRef {
		return r.keepBackRef(value.Ref(value.ID(binary.LittleEndian.Uint64(raw))))
	}
	s := r.cur
	if s == nil {
		return nil
	}
	v, _, err := value.DecodeRecord(raw)
	if err != nil {
		return err
	}
	if s.val && r.keepState {
		if s.set {
			s.members = append(s.members, v)
		} else {
			s.v = v
		}
	}
	if s.hist && r.keepHist && (s.set || !v.IsNull()) {
		step := r.step
		step.Val = v
		s.versions = append(s.versions, step)
	}
	return nil
}

func (r *reader) readTuple(rid storage.RID) error {
	var arc ArcPtr
	for first := true; rid.IsValid() && (first || r.unmet()); first = false {
		err := r.m.heap.View(rid, r.acc, func(data []byte) (err error) {
			arc, err = walkSnapshot(data, r)
			return err
		})
		if err != nil {
			return err
		}
		rid = r.prev
	}
	r.leftHome = r.depth > 1
	// The hot chain bottomed out with something still to find: the walk
	// continues through the archived prefix, newest-first, exactly as it
	// would have through the pre-archival chain. The lifespan always needs
	// it; state and histories only below the archive watermark.
	if !rid.IsValid() && !arc.IsZero() && r.unmet() && (r.wantLife() || arcNeeded(arc, r.ett)) {
		if r.m.arc == nil {
			return errNoArchive
		}
		r.leftHome, r.inArchive = true, true
		for off := arc.Off; off != 0 && r.unmet(); {
			payload, err := r.m.arc.ReadBlock(off, r.acc)
			if err != nil {
				return err
			}
			if off, err = walkArcSnapChunk(payload, r); err != nil {
				return err
			}
		}
	}
	r.finishTuple()
	return nil
}

// finishTuple turns what the newest-first walk collected into oldest-first
// answers: the lifespan, and step-function histories with equal adjacent
// plain values coalesced.
func (r *reader) finishTuple() {
	if r.wantLife() {
		// Collected newest-first; each snapshot holds until the next newer
		// one starts. Applying oldest-first lets deletions cut what earlier
		// snapshots opened. Snapshots mostly abut, so the common step just
		// extends the element's last interval.
		steps := r.lifeSteps
		for i := len(steps) - 1; i >= 0; i-- {
			valid := temporal.Open(steps[i].from)
			if i > 0 {
				valid.To = steps[i-1].from
			}
			n := len(r.life)
			switch {
			case valid.IsEmpty():
			case steps[i].deleted:
				r.life = r.life.SubtractInterval(temporal.Open(steps[i].from))
			case n > 0 && r.life[n-1].To == valid.From:
				r.life[n-1].To = valid.To
			default:
				r.life = r.life.Union(temporal.NewElement(valid))
			}
		}
	}
	for i := range r.slots {
		s := &r.slots[i]
		vs := s.versions
		for lo, hi := 0, len(vs)-1; lo < hi; lo, hi = lo+1, hi-1 {
			vs[lo], vs[hi] = vs[hi], vs[lo]
		}
		if s.set {
			continue
		}
		out := vs[:0]
		for _, v := range vs {
			if n := len(out); n > 0 && out[n-1].Val.Equal(v.Val) && out[n-1].Valid.To == v.Valid.From {
				out[n-1].Valid.To = v.Valid.To
				continue
			}
			out = append(out, v)
		}
		s.versions = out
	}
}

// reading assembles the answer once every record has been walked.
func (r *reader) reading() Reading {
	var rd Reading
	if r.wantLife() {
		rd.Lifespan = r.life
	}
	if r.wantState() {
		st := &State{ID: r.id, Type: r.t.Name, Alive: r.alive,
			Vals: map[string]value.V{}, Sets: map[string][]value.V{}, BackRefs: r.backRefs}
		if st.BackRefs == nil {
			st.BackRefs = map[string][]value.ID{}
		}
		for i := range r.slots {
			s := &r.slots[i]
			switch name := r.t.Attrs[i].Name; {
			case !s.val:
			case s.set:
				st.Sets[name] = sortVals(s.members)
			default:
				st.Vals[name] = s.v // Null when no version held, or the attribute is newer than the record
			}
		}
		for _, ids := range st.BackRefs {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		}
		rd.State = st
	}
	if r.rs == nil {
		for i := range r.slots {
			rd.Histories = append(rd.Histories, AttrHistory{r.t.Attrs[i].Name, sortHistory(r.slots[i].versions)})
		}
	} else if n := len(r.rs.Histories); n > 0 {
		rd.Histories = make([]AttrHistory, n)
		for i, name := range r.rs.Histories {
			rd.Histories[i] = AttrHistory{name, sortHistory(r.slots[r.t.AttrIndex(name)].versions)}
		}
	}
	return rd
}

// sortHistory orders a history by valid start (then value, for sets).
func sortHistory(vs []Version) []Version {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Valid.From != vs[j].Valid.From {
			return vs[i].Valid.From < vs[j].Valid.From
		}
		return vs[i].Val.Compare(vs[j].Val) < 0
	})
	return vs
}

func sortVals(vs []value.V) []value.V {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
	return vs
}
