package atom

import (
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Replica-side incremental index maintenance.
//
// A replication follower replays the leader's WAL through the heap's
// page-exact redo, which reproduces the leader's heap and overflow pages
// byte for byte — but not its index pages: indexes are unlogged derived
// state, so the follower keeps its own, in memory (rebuilt at open).
// Rebuilding from a full scan per batch would be O(heap) per commit;
// instead the follower calls NoteInsert/NoteUpdate/NoteDelete for each
// replayed record. Each heap record carries the logical payload at its
// home RID (its placement rides alongside), so classification is identical
// to the RebuildIndexes scan.
//
// Only the primary and type indexes are maintained. The time and value
// indexes must stay disabled on a follower: a stale entry there would
// under-approximate a query's candidate set and return wrong answers, so
// the follower's query planner falls back to type scans (documented
// trade-off — plans may differ from the leader, results may not).

// noteTransOf folds every transaction-time instant bound inside an atom
// into maxTrans — the follower's clock low-water mark.
func (m *Manager) noteTransOf(a *Atom) {
	note := func(iv temporal.Interval) {
		if iv.From > m.maxTrans {
			m.maxTrans = iv.From
		}
		if iv.To != temporal.Forever && iv.To > m.maxTrans {
			m.maxTrans = iv.To
		}
	}
	for i := range a.Attrs {
		for _, v := range a.Attrs[i].Versions {
			note(v.Trans)
		}
	}
	for _, vs := range a.BackRefs {
		for _, v := range vs {
			note(v.Trans)
		}
	}
}

// noteID advances the surrogate allocator past id.
func (m *Manager) noteID(id value.ID) {
	if uint64(id) >= m.nextID {
		m.nextID = uint64(id) + 1
	}
}

// NoteInsert records that a replayed heap insert placed data at home RID
// rid, upserting the primary and type index entries it implies.
func (m *Manager) NoteInsert(rid storage.RID, data []byte) error {
	switch RecordKind(data) {
	case recFullAtom:
		a, err := DecodeFull(data)
		if err != nil {
			return err
		}
		if err := m.primary.Insert(primaryKey(a.ID), rid.Pack()); err != nil {
			return err
		}
		if err := m.typeIdx.Insert(typeKey(a.Type, a.ID), rid.Pack()); err != nil {
			return err
		}
		m.noteID(a.ID)
		m.noteTransOf(a)
	case recCurrentAtom:
		a, _, err := DecodeCurrent(data)
		if err != nil {
			return err
		}
		if err := m.primary.Insert(primaryKey(a.ID), rid.Pack()); err != nil {
			return err
		}
		if err := m.typeIdx.Insert(typeKey(a.Type, a.ID), rid.Pack()); err != nil {
			return err
		}
		m.noteID(a.ID)
		m.noteTransOf(a)
	case recSnapshot:
		s, err := DecodeSnapshot(data)
		if err != nil {
			return err
		}
		// Snapshots are written in commit order, so within an atom the
		// latest insert is the newest snapshot: log-order upsert realizes
		// the newest-TransFrom-wins rule of the rebuild scan.
		if err := m.primary.Insert(primaryKey(s.ID), rid.Pack()); err != nil {
			return err
		}
		if err := m.typeIdx.Insert(typeKey(s.Type, s.ID), rid.Pack()); err != nil {
			return err
		}
		m.noteID(s.ID)
		if s.TransFrom > m.maxTrans {
			m.maxTrans = s.TransFrom
		}
	default:
		// History segments are reached through current records; other
		// records (the engine catalog) are not the atom layer's to index.
	}
	return nil
}

// NoteUpdate records that a replayed heap update replaced the record at
// home RID rid with data. An in-place update never changes an atom's home
// RID or surrogate, so the index mappings stay put; only the clock
// low-water mark moves.
func (m *Manager) NoteUpdate(rid storage.RID, data []byte) error {
	switch RecordKind(data) {
	case recFullAtom:
		a, err := DecodeFull(data)
		if err != nil {
			return err
		}
		m.noteTransOf(a)
	case recCurrentAtom:
		a, _, err := DecodeCurrent(data)
		if err != nil {
			return err
		}
		m.noteTransOf(a)
	case recSnapshot:
		s, err := DecodeSnapshot(data)
		if err != nil {
			return err
		}
		if s.TransFrom > m.maxTrans {
			m.maxTrans = s.TransFrom
		}
	}
	return nil
}

// NoteDelete records that a replayed heap delete is about to remove the
// record at home RID rid. old is the record's payload before the delete
// (the caller fetches it pre-apply; deletes are logged without data). The
// index entries are removed only when they still point at rid — vacuum
// deletes of superseded snapshots must not unhook the newer one.
func (m *Manager) NoteDelete(rid storage.RID, old []byte) error {
	var id value.ID
	var typeName string
	switch RecordKind(old) {
	case recFullAtom:
		a, err := DecodeFull(old)
		if err != nil {
			return err
		}
		id, typeName = a.ID, a.Type
	case recCurrentAtom:
		a, _, err := DecodeCurrent(old)
		if err != nil {
			return err
		}
		id, typeName = a.ID, a.Type
	case recSnapshot:
		s, err := DecodeSnapshot(old)
		if err != nil {
			return err
		}
		id, typeName = s.ID, s.Type
	default:
		return nil
	}
	cur, ok, err := m.primary.Get(primaryKey(id))
	if err != nil {
		return err
	}
	if !ok || cur != rid.Pack() {
		return nil
	}
	if _, err := m.primary.Delete(primaryKey(id)); err != nil {
		return err
	}
	if _, err := m.typeIdx.Delete(typeKey(typeName, id)); err != nil {
		return err
	}
	return nil
}
