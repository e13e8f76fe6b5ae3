package atom

import "tcodm/internal/storage"

// Index derivation from records.
//
// The primary and type indexes are derived state with one rule: each atom
// home record's head (readHead) is indexed at the record's home RID. Two
// callers apply it. A replication follower replays the leader's WAL through
// the heap's page-exact redo, which reproduces the leader's heap and
// overflow pages byte for byte but not its index pages (indexes are
// unlogged), so it calls NoteInsert/NoteUpdate/NoteDelete for each replayed
// record and keeps its own indexes, in memory. RebuildIndexes applies the
// same step to every record of a heap scan. Each heap record carries the
// logical payload at its home RID (its placement rides alongside), so the
// two see the same heads.
//
// Only the primary and type indexes follow the notes. The time and value
// indexes must stay disabled on a follower: a stale entry there would
// under-approximate a query's candidate set and return wrong answers, so
// the follower's query planner falls back to type scans (documented
// trade-off — plans may differ from the leader, results may not).

// noteHead indexes the home record whose head is h at rid: it upserts the
// primary and type entries and moves the surrogate allocator and the clock
// low-water mark past what the record holds.
func (m *Manager) noteHead(rid storage.RID, h head) error {
	if err := m.primary.Insert(primaryKey(h.id), rid.Pack()); err != nil {
		return err
	}
	if err := m.typeIdx.Insert(typeKey(h.typ, h.id), rid.Pack()); err != nil {
		return err
	}
	if uint64(h.id) >= m.nextID {
		m.nextID = uint64(h.id) + 1
	}
	m.maxTrans = max(m.maxTrans, h.trans)
	return nil
}

// NoteInsert records that a replayed heap insert placed data at home RID
// rid, upserting the primary and type index entries it implies. Snapshots
// are written in commit order, so within an atom the latest insert is the
// newest snapshot and the head of its chain: log-order upsert realizes the
// rule by which the rebuild chooses among a scan's snapshots.
func (m *Manager) NoteInsert(rid storage.RID, data []byte) error {
	h, ok, err := readHead(data)
	if !ok {
		return err
	}
	return m.noteHead(rid, h)
}

// NoteUpdate records that a replayed heap update replaced the record at
// home RID rid with data. An in-place update never changes an atom's home
// RID or surrogate, so the index mappings stay put; only the clock
// low-water mark moves.
func (m *Manager) NoteUpdate(rid storage.RID, data []byte) error {
	h, _, err := readHead(data)
	if err != nil {
		return err
	}
	m.maxTrans = max(m.maxTrans, h.trans)
	return nil
}

// NoteDelete records that a replayed heap delete is about to remove the
// record at home RID rid. old is the record's payload before the delete
// (the caller fetches it pre-apply; deletes are logged without data). The
// index entries are removed only when they still point at rid — vacuum
// deletes of superseded snapshots must not unhook the newer one.
func (m *Manager) NoteDelete(rid storage.RID, old []byte) error {
	h, ok, err := readHead(old)
	if !ok {
		return err
	}
	cur, found, err := m.primary.Get(primaryKey(h.id))
	if err != nil || !found || cur != rid.Pack() {
		return err
	}
	if _, err := m.primary.Delete(primaryKey(h.id)); err != nil {
		return err
	}
	_, err = m.typeIdx.Delete(typeKey(h.typ, h.id))
	return err
}
