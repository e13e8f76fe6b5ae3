package atom

import (
	"encoding/binary"
	"slices"

	"tcodm/internal/index"
	"tcodm/internal/storage"
	"tcodm/internal/value"
)

// RebuildIndexes derives every index afresh from a heap scan: the engine
// calls it after WAL replay following an unclean shutdown, on a store a
// follower last closed, and when a follower is promoted. The caller's open
// (or promote) has put the old index pages on the derived free list, so the
// fresh trees take their space. Returns the fresh index roots.
//
// The primary and type entries are the follower's note step (noteHead)
// applied to every home record the scan meets. A heap scan is in page
// order, not commit order, so a tuple atom's home snapshot is chosen after
// the scan: the newest TransFrom wins, and among the snapshots one
// transaction wrote (a change and the back-references it moves can each
// add one) the chain's head, the one no other names as its predecessor.
// The chosen snapshots are noted in ascending surrogate order, which keeps
// the trees' pages a function of the heap. The time and value entries then
// come from one full-fidelity Load per atom.
func (m *Manager) RebuildIndexes(pool *storage.BufferPool) (Roots, error) {
	trees := []**index.BPTree{&m.primary, &m.typeIdx}
	if m.opts.TimeIndex {
		trees = append(trees, &m.timeIdx)
	}
	if m.opts.ValueIndex {
		trees = append(trees, &m.valueIdx)
	}
	for _, t := range trees {
		fresh, err := index.New(pool)
		if err != nil {
			return Roots{}, err
		}
		*t = fresh
	}
	// The clock low-water mark is derived too: the persisted clock predates
	// the crash, so the largest transaction instant bound to any recovered
	// version is what the engine clock must pass.
	m.maxTrans = 0

	type noted struct {
		rid storage.RID
		h   head
	}
	var snaps []noted
	named := map[storage.RID]bool{} // snapshots a later one names as its predecessor
	err := m.heap.Scan(func(rid storage.RID, data []byte) (bool, error) {
		h, ok, err := readHead(data)
		switch {
		case !ok:
			return err == nil, err
		case h.kind == recSnapshot:
			snaps = append(snaps, noted{rid, h})
			named[h.prev] = true
			return true, nil
		}
		return true, m.noteHead(rid, h)
	})
	if err != nil {
		return Roots{}, err
	}
	home := map[value.ID]noted{}
	for _, s := range snaps {
		cur, seen := home[s.h.id]
		if !seen || s.h.trans > cur.h.trans || s.h.trans == cur.h.trans && named[cur.rid] && !named[s.rid] {
			home[s.h.id] = s
		}
	}
	ids := make([]value.ID, 0, len(home))
	for id := range home {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := m.noteHead(home[id].rid, home[id].h); err != nil {
			return Roots{}, err
		}
	}

	if m.timeIdx != nil || m.valueIdx != nil {
		err := m.primary.Scan(nil, func(k []byte, _ uint64) (bool, error) {
			a, err := m.Load(value.ID(binary.BigEndian.Uint64(k)))
			if err != nil {
				return false, err
			}
			return true, m.indexVersions(a)
		})
		if err != nil {
			return Roots{}, err
		}
	}
	return m.Roots(), nil
}

// indexVersions enters every version of a fully loaded atom in the time
// index and, when it holds a value, in the value index.
func (m *Manager) indexVersions(a *Atom) error {
	for _, ad := range a.Attrs {
		for _, ver := range ad.Versions {
			if m.timeIdx != nil {
				if err := m.timeIdx.Insert(timeKey(a.Type, ad.Name, ver.Valid.From, a.ID), uint64(a.ID)); err != nil {
					return err
				}
			}
			if m.valueIdx != nil && !ver.Val.IsNull() {
				if err := m.valueIdx.Insert(valueKey(a.Type, ad.Name, ver.Val, a.ID), uint64(a.ID)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
