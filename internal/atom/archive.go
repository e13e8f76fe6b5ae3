// History tiering: compaction coalesces adjacent equal-valued
// transaction-closed versions, and archival migrates versions no query at
// tt >= watermark can see out of the heap into the cold archive. Archived
// history stays fully queryable — reads past the watermark chase the
// per-atom archive pointer through append-only chunks — while the hot store
// stops paying for it.
package atom

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tcodm/internal/obs"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// ArcPtr is the per-atom archive pointer left in the hot record after
// archival: where the newest archived chunk lives and the transaction-time
// watermark below which queries need it. Off == 0 means no archived history
// (offset 0 is the archive file's magic header, never a block).
type ArcPtr struct {
	Off uint64           // archive block offset of the newest chunk
	WM  temporal.Instant // queries at effective tt < WM must merge the archive
}

// IsZero reports whether the pointer references no archived history.
func (p ArcPtr) IsZero() bool { return p.Off == 0 }

// arcTrailerSize is the encoded size of a non-zero ArcPtr: it rides as a
// fixed-size trailer after the record body, so records without archived
// history stay byte-identical to the pre-tiering format.
const arcTrailerSize = 8 + temporal.InstantWireSize

func appendArcTrailer(dst []byte, p ArcPtr) []byte {
	if p.Off == 0 {
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, p.Off)
	return temporal.AppendInstant(dst, p.WM)
}

// decodeArcTrailer parses the bytes left after a record body: none means no
// archived history; exactly one trailer means an ArcPtr; anything else is
// corruption.
func decodeArcTrailer(src []byte) (ArcPtr, error) {
	if len(src) == 0 {
		return ArcPtr{}, nil
	}
	if len(src) != arcTrailerSize {
		return ArcPtr{}, fmt.Errorf("atom: %d stray bytes after record body", len(src))
	}
	off := binary.LittleEndian.Uint64(src)
	wm, err := temporal.DecodeInstant(src[8:])
	if err != nil {
		return ArcPtr{}, err
	}
	if off == 0 {
		return ArcPtr{}, fmt.Errorf("atom: archive trailer with nil offset")
	}
	return ArcPtr{Off: off, WM: wm}, nil
}

// ArchiveSink is where the manager migrates cold versions. The engine's
// implementation appends to the archive file AND logs the frame to the WAL,
// which is what makes a crash mid-migration recoverable.
type ArchiveSink interface {
	// Append stores a chunk payload and returns its block offset.
	Append(payload []byte) (off uint64, err error)
	// ReadBlock returns the chunk payload at off, charging acc.
	ReadBlock(off uint64, acc *obs.Resources) ([]byte, error)
}

var errNoArchive = fmt.Errorf("atom: record references archived history but no archive is attached")

// SetArchive attaches the cold-archive sink. Must be set before reads that
// may cross the watermark and before ArchiveOlderThan.
func (m *Manager) SetArchive(sink ArchiveSink) { m.arc = sink }

// --- Archive chunk codecs --------------------------------------------------
//
// A chunk is one archive block's payload. Chunks chain newest-first through
// prevOff (0 terminates), continuing the same walk order reads use on the
// hot chain, so a deep-history scan is: hot records, then sequential chunk
// reads.

const (
	arcAtomChunk byte = 0xA1 // embedded/separated: versions tagged by attribute
	arcSnapChunk byte = 0xA2 // tuple: whole snapshots, newest-first
)

func encodeArcAtomChunk(prevOff uint64, entries []HistoryEntry) []byte {
	dst := []byte{arcAtomChunk}
	dst = binary.LittleEndian.AppendUint64(dst, prevOff)
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

func decodeArcAtomChunk(src []byte) (prevOff uint64, entries []HistoryEntry, err error) {
	var k entryKeeper
	if prevOff, err = walkArcAtomChunk(src, &k); err != nil {
		return 0, nil, err
	}
	return prevOff, k.kept, nil
}

// encodeArcSnapChunk stores whole snapshots newest-first, each
// length-prefixed. Prev RIDs and Arc pointers are cleared before encoding:
// the heap records they referenced are gone, and chunk chaining replaces
// them.
func encodeArcSnapChunk(prevOff uint64, snaps []*Snapshot) []byte {
	dst := []byte{arcSnapChunk}
	dst = binary.LittleEndian.AppendUint64(dst, prevOff)
	dst = binary.AppendUvarint(dst, uint64(len(snaps)))
	for _, s := range snaps {
		cp := *s
		cp.Prev = storage.NilRID
		cp.Arc = ArcPtr{}
		body := EncodeSnapshot(&cp)
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	return dst
}

func decodeArcSnapChunk(src []byte) (prevOff uint64, snaps []*Snapshot, err error) {
	k := snapKeeper{chunk: true}
	if prevOff, err = walkArcSnapChunk(src, &k); err != nil {
		return 0, nil, err
	}
	k.flush()
	return prevOff, k.all, nil
}

// --- Archive read paths ------------------------------------------------------

// arcLoadInto merges every archived version of the atom back into its
// in-memory form (embedded/separated strategies).
func (m *Manager) arcLoadInto(a *Atom) error {
	off := a.Arc.Off
	if off == 0 {
		return nil
	}
	if m.arc == nil {
		return errNoArchive
	}
	for off != 0 {
		payload, err := m.arc.ReadBlock(off, nil)
		if err != nil {
			return err
		}
		prev, entries, err := decodeArcAtomChunk(payload)
		if err != nil {
			return err
		}
		m.met.segmentReads.Inc()
		for _, e := range entries {
			if e.BackRef {
				a.BackRefs[e.Attr] = append(a.BackRefs[e.Attr], e.Ver)
				continue
			}
			ad := a.Attr(e.Attr)
			if ad == nil {
				return fmt.Errorf("atom: archived entry for unknown attribute %q", e.Attr)
			}
			ad.Versions = append(ad.Versions, e.Ver)
		}
		off = prev
	}
	return nil
}

// arcNeeded reports whether a question at effective transaction time ett
// must merge the atom's archive: only when archived history exists and the
// question reaches below the watermark. Everything at or above the
// watermark is answered by the hot store alone — the tiering perf win.
func arcNeeded(p ArcPtr, ett temporal.Instant) bool {
	return p.Off != 0 && ett < p.WM
}

// arcSnapChain reads the archived snapshot chain (tuple strategy),
// oldest-first, ready to prepend to the hot chain.
func (m *Manager) arcSnapChain(p ArcPtr) ([]*Snapshot, error) {
	if p.Off == 0 {
		return nil, nil
	}
	if m.arc == nil {
		return nil, errNoArchive
	}
	var newestFirst []*Snapshot
	for off := p.Off; off != 0; {
		payload, err := m.arc.ReadBlock(off, nil)
		if err != nil {
			return nil, err
		}
		prev, snaps, err := decodeArcSnapChunk(payload)
		if err != nil {
			return nil, err
		}
		m.met.snapshotHops.Add(uint64(len(snaps)))
		newestFirst = append(newestFirst, snaps...)
		off = prev
	}
	for i, j := 0, len(newestFirst)-1; i < j; i, j = i+1, j-1 {
		newestFirst[i], newestFirst[j] = newestFirst[j], newestFirst[i]
	}
	return newestFirst, nil
}

// --- Compaction ---------------------------------------------------------------

// deadBefore reports whether no query at tt >= beforeTT can see the version.
func deadBefore(v Version, beforeTT temporal.Instant) bool {
	return !v.Trans.IsOpenEnded() && v.Trans.To <= beforeTT
}

// Compact coalesces adjacent equal-valued transaction-closed versions in
// every atom's history: two dead versions with the same value, abutting
// valid intervals and the same transaction end collapse into one covering
// both. Queries at tt >= beforeTT answer exactly as before (the merged
// versions are invisible there either way); ASOF queries between the two
// original record times may lose the not-yet-recorded distinction, the same
// contract Vacuum has. The tuple strategy already coalesces at read time
// (whole-state snapshots store no per-attribute steps to merge), so it
// reports zero.
//
// Returns the number of versions eliminated by merging.
func (m *Manager) Compact(beforeTT temporal.Instant) (int, error) {
	if m.opts.Strategy == StrategyTuple {
		return 0, nil
	}
	merged := 0
	for _, typeName := range m.schema.AtomTypeNames() {
		ids, err := m.IDs(typeName)
		if err != nil {
			return merged, err
		}
		for _, id := range ids {
			n, err := m.compactAtom(id, beforeTT)
			if err != nil {
				return merged, err
			}
			merged += n
		}
	}
	return merged, nil
}

func (m *Manager) compactAtom(id value.ID, beforeTT temporal.Instant) (int, error) {
	// Pre-scan on a throwaway load: atoms with nothing to merge are skipped
	// without a rewrite (no dirty pages, no WAL bytes).
	probe, _, _, err := m.loadHot(id)
	if err != nil {
		return 0, err
	}
	if coalesceAtom(probe, beforeTT) == 0 {
		return 0, nil
	}
	merged := 0
	err = m.mutate(id, temporal.Open(temporal.Beginning), func(a *Atom) ([]Version, error) {
		merged = coalesceAtom(a, beforeTT)
		return nil, nil
	}, beforeTT)
	return merged, err
}

// coalesceAtom merges adjacent dead versions across all attributes and
// back-references, returning how many versions were eliminated.
func coalesceAtom(a *Atom, beforeTT temporal.Instant) int {
	merged := 0
	for i := range a.Attrs {
		vs, n := coalesceDead(a.Attrs[i].Versions, beforeTT)
		a.Attrs[i].Versions = vs
		merged += n
	}
	for k, vs := range a.BackRefs {
		out, n := coalesceDead(vs, beforeTT)
		a.BackRefs[k] = out
		merged += n
	}
	return merged
}

// coalesceDead merges runs of dead versions with equal values, abutting
// valid intervals and a common transaction end. The merged version's
// transaction start is the latest of the run (conservative: it never claims
// a value was recorded before it was). Live versions and versions dead
// after beforeTT are untouched. Reordering is safe: plain attributes have
// at most one visible version per (vt, tt) and set/back-ref reads sort.
func coalesceDead(vs []Version, beforeTT temporal.Instant) ([]Version, int) {
	var dead, rest []Version
	for _, v := range vs {
		if deadBefore(v, beforeTT) {
			dead = append(dead, v)
		} else {
			rest = append(rest, v)
		}
	}
	if len(dead) < 2 {
		return vs, 0
	}
	sort.SliceStable(dead, func(i, j int) bool {
		if c := dead[i].Val.Compare(dead[j].Val); c != 0 {
			return c < 0
		}
		if dead[i].Trans.To != dead[j].Trans.To {
			return dead[i].Trans.To < dead[j].Trans.To
		}
		return dead[i].Valid.From < dead[j].Valid.From
	})
	out := dead[:1:1]
	merged := 0
	for _, v := range dead[1:] {
		last := &out[len(out)-1]
		if last.Val.Equal(v.Val) && last.Trans.To == v.Trans.To && last.Valid.To == v.Valid.From {
			last.Valid.To = v.Valid.To
			if v.Trans.From > last.Trans.From {
				last.Trans.From = v.Trans.From
			}
			merged++
			continue
		}
		out = append(out, v)
	}
	if merged == 0 {
		return vs, 0
	}
	return append(out, rest...), merged
}

// --- Archival -------------------------------------------------------------------

// ArchiveOlderThan migrates every version that stopped being part of the
// recorded state before beforeTT out of the heap into the archive, leaving
// an ArcPtr in each touched atom's hot record. Queries at tt >= beforeTT
// never read the archive; older ASOF and history questions transparently
// chain into it. Returns the number of versions (tuple: snapshot records)
// migrated.
func (m *Manager) ArchiveOlderThan(beforeTT temporal.Instant) (int, error) {
	if m.arc == nil {
		return 0, fmt.Errorf("atom: ArchiveOlderThan without an attached archive")
	}
	total := 0
	for _, typeName := range m.schema.AtomTypeNames() {
		ids, err := m.IDs(typeName)
		if err != nil {
			return total, err
		}
		for _, id := range ids {
			var n int
			switch m.opts.Strategy {
			case StrategyEmbedded:
				n, err = m.archiveEmbedded(id, beforeTT)
			case StrategySeparated:
				n, err = m.archiveSeparated(id, beforeTT)
			case StrategyTuple:
				n, err = m.archiveTuple(id, beforeTT)
			default:
				err = fmt.Errorf("atom: unknown strategy %d", m.opts.Strategy)
			}
			if err != nil {
				return total, err
			}
			total += n
		}
	}
	return total, nil
}

// splitDead strips every dead-before-beforeTT version out of the atom and
// returns them as history entries (attribute order, then back-ref keys
// sorted — deterministic for replication digests).
func splitDead(a *Atom, beforeTT temporal.Instant) []HistoryEntry {
	var entries []HistoryEntry
	for i := range a.Attrs {
		ad := &a.Attrs[i]
		var kept []Version
		for _, v := range ad.Versions {
			if deadBefore(v, beforeTT) {
				entries = append(entries, HistoryEntry{Attr: ad.Name, Ver: v})
				continue
			}
			kept = append(kept, v)
		}
		ad.Versions = kept
	}
	keys := make([]string, 0, len(a.BackRefs))
	for k := range a.BackRefs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var kept []Version
		for _, v := range a.BackRefs[k] {
			if deadBefore(v, beforeTT) {
				entries = append(entries, HistoryEntry{Attr: k, BackRef: true, Ver: v})
				continue
			}
			kept = append(kept, v)
		}
		if len(kept) == 0 {
			delete(a.BackRefs, k)
		} else {
			a.BackRefs[k] = kept
		}
	}
	return entries
}

// bumpArc chains a new chunk in front of the atom's archived history.
func bumpArc(p ArcPtr, off uint64, beforeTT temporal.Instant) ArcPtr {
	wm := beforeTT
	if p.WM > wm {
		wm = p.WM
	}
	return ArcPtr{Off: off, WM: wm}
}

func (m *Manager) archiveEmbedded(id value.ID, beforeTT temporal.Instant) (int, error) {
	rid, err := m.homeRID(id)
	if err != nil {
		return 0, err
	}
	data, err := m.heap.Fetch(rid)
	if err != nil {
		return 0, err
	}
	a, err := DecodeFull(data)
	if err != nil {
		return 0, err
	}
	a = m.reconcile(a)
	entries := splitDead(a, beforeTT)
	if len(entries) == 0 {
		return 0, nil
	}
	off, err := m.arc.Append(encodeArcAtomChunk(a.Arc.Off, entries))
	if err != nil {
		return 0, err
	}
	a.Arc = bumpArc(a.Arc, off, beforeTT)
	if err := m.heap.Update(rid, EncodeFull(a)); err != nil {
		return 0, err
	}
	m.met.archivedVersions.Add(uint64(len(entries)))
	return len(entries), nil
}

func (m *Manager) archiveSeparated(id value.ID, beforeTT temporal.Instant) (int, error) {
	rid, err := m.homeRID(id)
	if err != nil {
		return 0, err
	}
	a, hdr, err := m.loadSeparatedFull(rid)
	if err != nil {
		return 0, err
	}
	a = m.reconcile(a)
	entries := splitDead(a, beforeTT)
	if len(entries) == 0 {
		return 0, nil
	}
	off, err := m.arc.Append(encodeArcAtomChunk(a.Arc.Off, entries))
	if err != nil {
		return 0, err
	}
	a.Arc = bumpArc(a.Arc, off, beforeTT)
	if err := m.separatedRewrite(rid, a, hdr.Head); err != nil {
		return 0, err
	}
	m.met.archivedVersions.Add(uint64(len(entries)))
	return len(entries), nil
}

// archiveTuple migrates the maximal prefix of superseded snapshots — those
// no query at tt >= beforeTT can reach (a newer snapshot with the same or
// earlier ValidFrom was recorded before beforeTT) — into one chunk, stored
// newest-first so archive reads continue the hot walk's order. The new
// oldest hot snapshot becomes the boundary: Prev cut to nil, ArcPtr set.
// Its heap record is updated in place, so the newest RID (and with it every
// index entry) is untouched.
func (m *Manager) archiveTuple(id value.ID, beforeTT temporal.Instant) (int, error) {
	rid, err := m.homeRID(id)
	if err != nil {
		return 0, err
	}
	chain, err := m.tupleChain(rid) // oldest-first, hot records only
	if err != nil {
		return 0, err
	}
	if len(chain) < 2 {
		return 0, nil
	}
	keep := make([]bool, len(chain))
	keep[len(chain)-1] = true
	for i := 0; i+1 < len(chain); i++ {
		next := chain[i+1]
		keep[i] = !(next.ValidFrom <= chain[i].ValidFrom && next.TransFrom <= beforeTT)
	}
	cut := 0
	for cut < len(chain) && !keep[cut] {
		cut++
	}
	if cut == 0 {
		return 0, nil
	}
	oldRIDs, err := m.tupleChainRIDs(rid) // oldest-first
	if err != nil {
		return 0, err
	}
	newestFirst := make([]*Snapshot, 0, cut)
	for i := cut - 1; i >= 0; i-- {
		newestFirst = append(newestFirst, chain[i])
	}
	off, err := m.arc.Append(encodeArcSnapChunk(chain[0].Arc.Off, newestFirst))
	if err != nil {
		return 0, err
	}
	boundary := *chain[cut]
	boundary.Prev = storage.NilRID
	boundary.Arc = bumpArc(chain[0].Arc, off, beforeTT)
	if err := m.heap.Update(oldRIDs[cut], EncodeSnapshot(&boundary)); err != nil {
		return 0, err
	}
	for i := 0; i < cut; i++ {
		if err := m.heap.Delete(oldRIDs[i]); err != nil {
			return 0, err
		}
	}
	m.met.archivedVersions.Add(uint64(cut))
	return cut, nil
}
