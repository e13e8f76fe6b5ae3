package atom

import (
	"encoding/binary"
	"fmt"

	"tcodm/internal/index"
	"tcodm/internal/obs"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Strategy selects the physical mapping of temporal atoms onto records.
type Strategy uint8

const (
	// StrategyEmbedded stores an atom with its full history in one record.
	StrategyEmbedded Strategy = iota
	// StrategySeparated stores current state and history separately.
	StrategySeparated
	// StrategyTuple stores one whole-state snapshot record per change.
	StrategyTuple
)

var strategyNames = [...]string{"embedded", "separated", "tuple"}

// String returns the strategy's name.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// ParseStrategy maps a name to its Strategy.
func ParseStrategy(name string) (Strategy, bool) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), true
		}
	}
	return 0, false
}

// ErrStrategy reports an operation the active strategy cannot express
// (tuple versioning supports only forward, open-ended changes).
var ErrStrategy = fmt.Errorf("atom: operation not supported by the active storage strategy")

// ErrNotFound reports a missing atom.
var ErrNotFound = fmt.Errorf("atom: not found")

// Options configure a Manager.
type Options struct {
	Strategy Strategy
	// SegmentCap bounds entries per history segment (separated strategy).
	SegmentCap int
	// TimeIndex maintains the version time index (valid-start B+-tree).
	TimeIndex bool
	// ValueIndex maintains the secondary value index over every plain
	// attribute (equality/range predicate support).
	ValueIndex bool
}

// Stats counts physical work, letting benchmarks attribute costs. It is a
// point-in-time view over the manager's obs metrics (see atomMetrics), kept
// for callers that predate the observability layer.
type Stats struct {
	FastLoads    uint64 // reader calls answered by the atom's home record alone
	FullLoads    uint64 // reader calls that read on past it, plus full materializations (Load, maintenance)
	SegmentReads uint64 // history segments and atom archive chunks read
	SnapshotHops uint64 // tuple-chain records walked
}

// atomMetrics holds the manager's instrumentation handles. Defaults are
// standalone obs counters so direct-construction callers (tests, tools)
// still get Stats(); SetMetrics rebinds to a registry or disables them.
// Every Read counts exactly one fast or full load and, when a registry is
// attached, observes its latency once; the chain-depth histogram fires only
// for reads (and materializations) that leave the home record.
type atomMetrics struct {
	fastLoads        *obs.Counter
	fullLoads        *obs.Counter
	segmentReads     *obs.Counter
	snapshotHops     *obs.Counter
	archivedVersions *obs.Counter   // versions migrated to the cold archive
	chainDepth       *obs.Histogram // segments, chunks or snapshots walked per full load
	decodeNS         *obs.Histogram // latency of one Read, whatever the placement
}

func standaloneAtomMetrics() atomMetrics {
	return atomMetrics{
		fastLoads:        obs.NewCounter(),
		fullLoads:        obs.NewCounter(),
		segmentReads:     obs.NewCounter(),
		snapshotHops:     obs.NewCounter(),
		archivedVersions: obs.NewCounter(),
		chainDepth:       obs.NewHistogram(),
		// decodeNS stays nil: reads take the clock only for a registry.
	}
}

// Manager realizes temporal atoms on the heap under one strategy, with a
// primary index (surrogate -> home RID), a type index for scans, and an
// optional time index on version valid-start instants. All mutation
// methods take the transaction-time instant assigned by the caller's
// transaction.
type Manager struct {
	heap     *storage.Heap
	schema   *schema.Schema
	opts     Options
	primary  *index.BPTree
	typeIdx  *index.BPTree
	timeIdx  *index.BPTree // nil unless opts.TimeIndex
	valueIdx *index.BPTree // nil unless opts.ValueIndex
	nextID   uint64
	met      atomMetrics
	idxUndo  IndexUndo
	arc      ArchiveSink // cold archive (nil until SetArchive)
	// maxTrans is the largest transaction-time instant bound inside the
	// records indexed by the note step (noteHead): those of the last
	// RebuildIndexes scan and of every replayed record noted since. After
	// recovery, and after a follower applies shipped commits, the engine
	// clock must advance past it, or later commits would reuse transaction
	// times already bound to replayed versions.
	maxTrans temporal.Instant
}

// MaxTransactionTime returns the largest transaction-time instant bound
// inside the records the last RebuildIndexes scan and the follower's notes
// since have indexed (zero before either).
func (m *Manager) MaxTransactionTime() temporal.Instant { return m.maxTrans }

// IndexUndo receives inverse operations for index mutations so the
// transaction layer can roll indexes back on abort (indexes are unlogged
// derived state; heap undo alone would leave them stale).
type IndexUndo interface {
	RecordIndexUndo(undo func() error)
}

// Roots carries the page IDs that identify the manager's indexes, for
// persistence in the engine meta payload.
type Roots struct {
	Primary storage.PageID
	Type    storage.PageID
	Time    storage.PageID // InvalidPage when no time index
	Value   storage.PageID // InvalidPage when no value index
	NextID  uint64
}

// NewManager creates a manager with fresh, empty indexes.
func NewManager(heap *storage.Heap, pool *storage.BufferPool, sch *schema.Schema, opts Options) (*Manager, error) {
	if opts.SegmentCap <= 0 {
		opts.SegmentCap = 32
	}
	primary, err := index.New(pool)
	if err != nil {
		return nil, err
	}
	typeIdx, err := index.New(pool)
	if err != nil {
		return nil, err
	}
	m := &Manager{heap: heap, schema: sch, opts: opts, primary: primary, typeIdx: typeIdx, nextID: 1,
		met: standaloneAtomMetrics()}
	if opts.TimeIndex {
		ti, err := index.New(pool)
		if err != nil {
			return nil, err
		}
		m.timeIdx = ti
	}
	if opts.ValueIndex {
		vi, err := index.New(pool)
		if err != nil {
			return nil, err
		}
		m.valueIdx = vi
	}
	return m, nil
}

// OpenManager attaches to existing indexes identified by roots.
func OpenManager(heap *storage.Heap, pool *storage.BufferPool, sch *schema.Schema, opts Options, roots Roots) (*Manager, error) {
	if opts.SegmentCap <= 0 {
		opts.SegmentCap = 32
	}
	primary, err := index.Open(pool, roots.Primary)
	if err != nil {
		return nil, err
	}
	typeIdx, err := index.Open(pool, roots.Type)
	if err != nil {
		return nil, err
	}
	m := &Manager{heap: heap, schema: sch, opts: opts, primary: primary, typeIdx: typeIdx, nextID: roots.NextID,
		met: standaloneAtomMetrics()}
	if opts.TimeIndex {
		if roots.Time == storage.InvalidPage {
			return nil, fmt.Errorf("atom: time index requested but no persisted root")
		}
		ti, err := index.Open(pool, roots.Time)
		if err != nil {
			return nil, err
		}
		m.timeIdx = ti
	}
	if opts.ValueIndex {
		if roots.Value == storage.InvalidPage {
			return nil, fmt.Errorf("atom: value index requested but no persisted root")
		}
		vi, err := index.Open(pool, roots.Value)
		if err != nil {
			return nil, err
		}
		m.valueIdx = vi
	}
	return m, nil
}

// Roots returns the persistence handles of the manager's indexes.
func (m *Manager) Roots() Roots {
	r := Roots{Primary: m.primary.Root(), Type: m.typeIdx.Root(),
		Time: storage.InvalidPage, Value: storage.InvalidPage, NextID: m.nextID}
	if m.timeIdx != nil {
		r.Time = m.timeIdx.Root()
	}
	if m.valueIdx != nil {
		r.Value = m.valueIdx.Root()
	}
	return r
}

// SetIndexUndo installs (or removes, with nil) the index-undo sink.
func (m *Manager) SetIndexUndo(r IndexUndo) { m.idxUndo = r }

// idxPut inserts into an index tree, capturing the inverse operation.
func (m *Manager) idxPut(t *index.BPTree, key []byte, val uint64) error {
	if m.idxUndo != nil {
		prior, ok, err := t.Get(key)
		if err != nil {
			return err
		}
		k := append([]byte(nil), key...)
		if ok {
			m.idxUndo.RecordIndexUndo(func() error { return t.Insert(k, prior) })
		} else {
			m.idxUndo.RecordIndexUndo(func() error { _, err := t.Delete(k); return err })
		}
	}
	return t.Insert(key, val)
}

// SetMetrics binds the manager's instrumentation to reg under "atom.*"
// names. A nil registry disables instrumentation entirely. Call before
// concurrent use: the handles are read without synchronization on read
// paths that run under the engine's shared lock.
func (m *Manager) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		m.met = atomMetrics{}
		return
	}
	m.met = atomMetrics{
		fastLoads:        reg.Counter("atom.fast_loads"),
		fullLoads:        reg.Counter("atom.full_loads"),
		segmentReads:     reg.Counter("atom.segment_reads"),
		snapshotHops:     reg.Counter("atom.snapshot_hops"),
		archivedVersions: reg.Counter("atom.archived_versions"),
		chainDepth:       reg.Histogram("atom.chain_depth"),
		decodeNS:         reg.Histogram("atom.decode_ns"),
	}
}

// Stats returns the physical-work counters. The counters are atomic
// because read paths bump them under the engine's shared read lock
// (concurrent readers would otherwise race).
func (m *Manager) Stats() Stats {
	return Stats{
		FastLoads:    m.met.fastLoads.Value(),
		FullLoads:    m.met.fullLoads.Value(),
		SegmentReads: m.met.segmentReads.Value(),
		SnapshotHops: m.met.snapshotHops.Value(),
	}
}

// ResetStats zeroes the counters (benchmark support).
func (m *Manager) ResetStats() {
	m.met.fastLoads.Reset()
	m.met.fullLoads.Reset()
	m.met.segmentReads.Reset()
	m.met.snapshotHops.Reset()
}

// Strategy returns the active storage strategy.
func (m *Manager) Strategy() Strategy { return m.opts.Strategy }

// HasTimeIndex reports whether the version time index is maintained.
func (m *Manager) HasTimeIndex() bool { return m.timeIdx != nil }

// Schema returns the schema the manager validates against.
func (m *Manager) Schema() *schema.Schema { return m.schema }

// Count returns the number of live atoms (primary index entries).
func (m *Manager) Count() int { return m.primary.Len() }

// --- Key helpers ---------------------------------------------------------

func primaryKey(id value.ID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

func typeKey(typeName string, id value.ID) []byte {
	k := make([]byte, 0, len(typeName)+9)
	k = append(k, typeName...)
	k = append(k, 0)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return append(k, b[:]...)
}

func typePrefix(typeName string) []byte {
	k := make([]byte, 0, len(typeName)+1)
	k = append(k, typeName...)
	return append(k, 0)
}

// timeKey indexes a version by (type, attr, valid-start, atom).
func timeKey(typeName, attr string, from temporal.Instant, id value.ID) []byte {
	k := make([]byte, 0, len(typeName)+len(attr)+18)
	k = append(k, typeName...)
	k = append(k, 0)
	k = append(k, attr...)
	k = append(k, 0)
	k = temporal.AppendInstant(k, from)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return append(k, b[:]...)
}

func timePrefix(typeName, attr string) []byte {
	k := make([]byte, 0, len(typeName)+len(attr)+2)
	k = append(k, typeName...)
	k = append(k, 0)
	k = append(k, attr...)
	return append(k, 0)
}

// --- Insert ---------------------------------------------------------------

// Insert creates an atom of the given type with initial plain-attribute
// values, alive from validFrom on. Reference attributes of cardinality One
// may be initialized through vals (value.Ref); Many-references are attached
// afterwards with AddRef. Missing attributes start Null.
func (m *Manager) Insert(typeName string, vals map[string]value.V, validFrom, tt temporal.Instant) (value.ID, error) {
	t, ok := m.schema.AtomType(typeName)
	if !ok {
		return 0, fmt.Errorf("atom: unknown atom type %q", typeName)
	}
	id := value.ID(m.nextID)
	m.nextID++
	a := NewAtom(id, t)
	a.Lifespan = temporal.NewElement(temporal.Open(validFrom))
	life := temporal.Open(validFrom)

	type refInit struct {
		attr   string
		target value.ID
	}
	var refs []refInit
	for name, v := range vals {
		at, ok := t.Attr(name)
		if !ok {
			return 0, fmt.Errorf("atom: %s has no attribute %q", typeName, name)
		}
		if err := checkKind(at, v); err != nil {
			return 0, err
		}
		if at.IsRef() && at.Card == schema.Many {
			return 0, fmt.Errorf("atom: many-reference %q must be attached with AddRef", name)
		}
		if _, err := a.Attr(name).spliceVersion(life, v, tt); err != nil {
			return 0, err
		}
		if at.IsRef() && !v.IsNull() {
			refs = append(refs, refInit{attr: name, target: v.AsID()})
		}
	}
	for _, at := range t.Attrs {
		if at.Required {
			if v, ok := vals[at.Name]; !ok || v.IsNull() {
				return 0, fmt.Errorf("atom: required attribute %s.%s missing", typeName, at.Name)
			}
		}
	}

	var rid storage.RID
	var err error
	switch m.opts.Strategy {
	case StrategyEmbedded:
		rid, err = m.heap.Insert(EncodeFull(a))
	case StrategySeparated:
		rid, err = m.heap.Insert(EncodeCurrent(a, SepHeader{Head: storage.NilRID, Watermark: temporal.Beginning}))
	case StrategyTuple:
		snap := atomToSnapshot(a, validFrom, tt)
		rid, err = m.heap.Insert(EncodeSnapshot(snap))
	default:
		err = fmt.Errorf("atom: unknown strategy %d", m.opts.Strategy)
	}
	if err != nil {
		return 0, err
	}
	if err := m.idxPut(m.primary, primaryKey(id), rid.Pack()); err != nil {
		return 0, err
	}
	if err := m.idxPut(m.typeIdx, typeKey(typeName, id), rid.Pack()); err != nil {
		return 0, err
	}
	// Index entries go in in schema order, not map order, so B+-tree splits
	// (and with them page numbers) follow the operations alone.
	if m.timeIdx != nil {
		for _, at := range t.Attrs {
			if _, ok := vals[at.Name]; ok {
				if err := m.idxPut(m.timeIdx, timeKey(typeName, at.Name, validFrom, id), uint64(id)); err != nil {
					return 0, err
				}
			}
		}
	}
	for _, at := range t.Attrs {
		if v, ok := vals[at.Name]; ok {
			if err := m.noteValue(typeName, at.Name, v, id); err != nil {
				return 0, err
			}
		}
	}
	// Record the inverse direction of initial One-references.
	for _, r := range refs {
		if err := m.addBackRefTo(r.target, typeName, r.attr, id, life, tt); err != nil {
			return 0, err
		}
	}
	return id, nil
}

func checkKind(at schema.Attribute, v value.V) error {
	if v.IsNull() {
		return nil
	}
	if v.Kind() != at.Kind {
		return fmt.Errorf("atom: attribute %q wants %s, got %s", at.Name, at.Kind, v.Kind())
	}
	return nil
}

// atomToSnapshot projects the atom's state at its creation into a
// tuple-strategy snapshot.
func atomToSnapshot(a *Atom, validFrom, tt temporal.Instant) *Snapshot {
	s := &Snapshot{
		ID: a.ID, Type: a.Type, ValidFrom: validFrom, TransFrom: tt,
		Prev: storage.NilRID,
		Vals: map[string]value.V{}, Sets: map[string][]value.V{}, BackRefs: map[string][]value.ID{},
	}
	for _, ad := range a.Attrs {
		if ad.Set {
			s.Sets[ad.Name] = ad.SetAt(validFrom, tt)
			continue
		}
		s.Vals[ad.Name] = ad.ValueAt(validFrom, tt)
	}
	for k := range a.BackRefs {
		ids := make([]value.ID, 0)
		for _, v := range a.BackRefs[k] {
			if v.VisibleAt(validFrom, tt) {
				ids = append(ids, v.Val.AsID())
			}
		}
		if len(ids) > 0 {
			s.BackRefs[k] = ids
		}
	}
	return s
}

// homeRID resolves an atom's current home record.
func (m *Manager) homeRID(id value.ID) (storage.RID, error) {
	v, ok, err := m.primary.Get(primaryKey(id))
	if err != nil {
		return storage.NilRID, err
	}
	if !ok {
		return storage.NilRID, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	return storage.UnpackRID(v), nil
}

// IDs returns all atom surrogates of a type, in ascending order.
func (m *Manager) IDs(typeName string) ([]value.ID, error) {
	var out []value.ID
	prefix := typePrefix(typeName)
	err := m.typeIdx.Scan(prefix, func(k []byte, v uint64) (bool, error) {
		if len(k) < len(prefix) || string(k[:len(prefix)]) != string(prefix) {
			return false, nil
		}
		out = append(out, value.ID(binary.BigEndian.Uint64(k[len(prefix):])))
		return true, nil
	})
	return out, err
}

// ScanType streams (id, home RID) pairs for a type.
func (m *Manager) ScanType(typeName string, fn func(id value.ID, rid storage.RID) (bool, error)) error {
	prefix := typePrefix(typeName)
	return m.typeIdx.Scan(prefix, func(k []byte, v uint64) (bool, error) {
		if len(k) < len(prefix) || string(k[:len(prefix)]) != string(prefix) {
			return false, nil
		}
		return fn(value.ID(binary.BigEndian.Uint64(k[len(prefix):])), storage.UnpackRID(v))
	})
}

// TimeIndexScan streams atom IDs with a version of (typeName, attr) whose
// valid interval starts before the bound (candidates for WHEN predicates).
// Returns ErrStrategy-like error when the time index is disabled.
func (m *Manager) TimeIndexScan(typeName, attr string, startBelow temporal.Instant, fn func(id value.ID) (bool, error)) error {
	if m.timeIdx == nil {
		return fmt.Errorf("atom: time index not enabled")
	}
	prefix := timePrefix(typeName, attr)
	end := temporal.AppendInstant(append([]byte(nil), prefix...), startBelow)
	return m.timeIdx.ScanRange(prefix, end, func(k []byte, v uint64) (bool, error) {
		return fn(value.ID(v))
	})
}

// SetSchema swaps the schema after DDL. Existing atom types are never
// removed or altered by the engine's DDL, so stored atoms remain valid.
func (m *Manager) SetSchema(s *schema.Schema) { m.schema = s }
