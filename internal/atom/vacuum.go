package atom

import (
	"fmt"

	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Vacuum removes versions that stopped being part of the recorded state
// before transaction time beforeTT: after vacuuming, queries with
// tt >= beforeTT answer exactly as before, while older ASOF queries lose
// the pruned detail. This is the transaction-time purge every append-only
// temporal store eventually needs — valid-time history is never touched.
//
// Returns the number of versions (or, for the tuple strategy, snapshot
// records) removed.
func (m *Manager) Vacuum(beforeTT temporal.Instant) (int, error) {
	removed := 0
	for _, typeName := range m.schema.AtomTypeNames() {
		ids, err := m.IDs(typeName)
		if err != nil {
			return removed, err
		}
		for _, id := range ids {
			n, err := m.vacuumAtom(id, beforeTT)
			if err != nil {
				return removed, err
			}
			removed += n
		}
	}
	return removed, nil
}

func (m *Manager) vacuumAtom(id value.ID, beforeTT temporal.Instant) (int, error) {
	if m.opts.Strategy == StrategyTuple {
		return m.tupleVacuum(id, beforeTT)
	}
	// Probe on a throwaway load first: an atom with nothing dead is skipped
	// without a rewrite — no dirty pages, no WAL bytes. The probe pays a
	// read the rewrite would have paid anyway.
	probe, _, _, err := m.loadHot(id)
	if err != nil {
		return 0, err
	}
	if countDead(probe, beforeTT) == 0 && !(!probe.Arc.IsZero() && beforeTT >= probe.Arc.WM) {
		return 0, nil
	}
	removed := 0
	// A span starting at Beginning forces the separated strategy onto its
	// full-materialization path, so filtering sees every version.
	err = m.mutate(id, temporal.Open(temporal.Beginning), func(a *Atom) ([]Version, error) {
		dead := func(v Version) bool {
			return !v.Trans.IsOpenEnded() && v.Trans.To <= beforeTT
		}
		// Archived versions are by construction dead before the archive
		// watermark: a vacuum bound at or past it purges them too. Merge
		// them back so the dead filter below counts and drops them, and
		// clear the pointer — the archive blocks become unreferenced.
		if !a.Arc.IsZero() && beforeTT >= a.Arc.WM {
			if err := m.arcLoadInto(a); err != nil {
				return nil, err
			}
			a.Arc = ArcPtr{}
		}
		for i := range a.Attrs {
			ad := &a.Attrs[i]
			kept := ad.Versions[:0]
			for _, v := range ad.Versions {
				if dead(v) {
					removed++
					continue
				}
				kept = append(kept, v)
			}
			ad.Versions = kept
		}
		for k, vs := range a.BackRefs {
			kept := vs[:0]
			for _, v := range vs {
				if dead(v) {
					removed++
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
		return nil, nil
	}, beforeTT)
	return removed, err
}

// countDead counts hot versions no query at tt >= beforeTT can see.
func countDead(a *Atom, beforeTT temporal.Instant) int {
	n := 0
	for i := range a.Attrs {
		for _, v := range a.Attrs[i].Versions {
			if deadBefore(v, beforeTT) {
				n++
			}
		}
	}
	for _, vs := range a.BackRefs {
		for _, v := range vs {
			if deadBefore(v, beforeTT) {
				n++
			}
		}
	}
	return n
}

// tupleVacuum rewrites the snapshot chain, dropping records no query with
// tt >= beforeTT can reach. Under tuple versioning each snapshot doubles
// as a valid-time version, so a record stays reachable at tt = Now for old
// valid instants: only snapshots whose valid window was re-covered by a
// successor recorded before beforeTT (same ValidFrom) are dead. This is a
// genuine weakness of the strategy — transaction-time garbage is largely
// unreclaimable — and the experiments document it.
func (m *Manager) tupleVacuum(id value.ID, beforeTT temporal.Instant) (int, error) {
	rid, err := m.homeRID(id)
	if err != nil {
		return 0, err
	}
	chain, err := m.tupleChain(rid) // oldest first, hot records only
	if err != nil {
		return 0, err
	}
	// Archived snapshots are superseded below the archive watermark: a
	// vacuum bound at or past it purges them too — merge them into the
	// rewrite (the keep rule below rejects them all) and drop the pointer.
	// Below the watermark the archive is out of vacuum's reach; the pointer
	// must survive the rewrite on the new oldest snapshot.
	carryArc := ArcPtr{}
	if len(chain) > 0 && !chain[0].Arc.IsZero() {
		if beforeTT >= chain[0].Arc.WM {
			arch, err := m.arcSnapChain(chain[0].Arc)
			if err != nil {
				return 0, err
			}
			chain = append(arch, chain...)
		} else {
			carryArc = chain[0].Arc
		}
	}
	keep := make([]bool, len(chain))
	keep[len(chain)-1] = true // the newest is always visible
	for i := 0; i+1 < len(chain); i++ {
		next := chain[i+1]
		superseded := next.ValidFrom <= chain[i].ValidFrom && next.TransFrom <= beforeTT
		keep[i] = !superseded
	}
	removedCount := 0
	for _, k := range keep {
		if !k {
			removedCount++
		}
	}
	if removedCount == 0 {
		return 0, nil
	}
	// Rewrite the chain oldest-first so Prev pointers resolve, then delete
	// the old records and repoint the indexes.
	oldRIDs, err := m.tupleChainRIDs(rid)
	if err != nil {
		return 0, err
	}
	prev := storage.NilRID
	var newest storage.RID
	var typeName string
	for i, snap := range chain {
		if !keep[i] {
			continue
		}
		cp := *snap
		cp.Prev = prev
		cp.Arc = carryArc
		carryArc = ArcPtr{} // only the oldest kept snapshot carries it
		newRID, err := m.heap.Insert(EncodeSnapshot(&cp))
		if err != nil {
			return 0, err
		}
		prev = newRID
		newest = newRID
		typeName = snap.Type
	}
	for _, old := range oldRIDs {
		if err := m.heap.Delete(old); err != nil {
			return 0, err
		}
	}
	if err := m.idxPut(m.primary, primaryKey(id), newest.Pack()); err != nil {
		return 0, err
	}
	if err := m.idxPut(m.typeIdx, typeKey(typeName, id), newest.Pack()); err != nil {
		return 0, err
	}
	return removedCount, nil
}

// tupleChainRIDs collects the record IDs of a snapshot chain, oldest first.
func (m *Manager) tupleChainRIDs(rid storage.RID) ([]storage.RID, error) {
	var out []storage.RID
	for rid.IsValid() {
		data, err := m.heap.Fetch(rid)
		if err != nil {
			return nil, err
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return nil, err
		}
		out = append(out, rid)
		rid = snap.Prev
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}

// ErrVacuumFuture guards against purging the present.
var ErrVacuumFuture = fmt.Errorf("atom: vacuum bound must not exceed the current transaction time")
