package atom

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tcodm/internal/obs"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// testSink adapts a storage.Archive to the manager's sink interface the way
// the engine does, minus the WAL logging (these tests run unlogged).
type testSink struct{ a *storage.Archive }

func (s testSink) Append(p []byte) (uint64, error) {
	off, _, err := s.a.Append(p)
	return off, err
}

func (s testSink) ReadBlock(off uint64, acc *obs.Resources) ([]byte, error) {
	return s.a.ReadBlock(off, acc)
}

func newArchivedManager(t testing.TB, strat Strategy) *Manager {
	t.Helper()
	m := newManager(t, strat)
	m.SetArchive(testSink{a: storage.NewMemArchive()})
	return m
}

// buildRandomHistory drives a deterministic pseudo-random mutation sequence
// against m: attribute splices over open and bounded intervals, deletions,
// revivals, and many-reference edits, with a small value domain so
// compaction finds equal-valued runs to coalesce. Returns the atom ids and
// the highest transaction time used.
func buildRandomHistory(t *testing.T, m *Manager, rng *rand.Rand) ([]value.ID, temporal.Instant) {
	t.Helper()
	var ids []value.ID
	for i := 0; i < 3; i++ {
		id, err := m.Insert("Emp", map[string]value.V{
			"name":   value.String_(fmt.Sprintf("e%d", i)),
			"salary": value.Int(int64(1000 + i)),
		}, temporal.Instant(rng.Intn(10)), temporal.Instant(i+1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	proj, err := m.Insert("Proj", map[string]value.V{
		"title": value.String_("tiering"),
	}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	var maxTT temporal.Instant
	for step := 0; step < 60; step++ {
		tt := temporal.Instant(10 + step)
		maxTT = tt
		id := ids[rng.Intn(len(ids))]
		var iv temporal.Interval
		switch rng.Intn(3) {
		case 0:
			// Correction points drawn from a small fixed set: repeats at the
			// same instant are what make whole snapshots superseded under the
			// tuple strategy (its only archivable shape).
			iv = temporal.Open([]temporal.Instant{0, 10, 20, 35}[rng.Intn(4)])
		case 1:
			iv = temporal.Open(temporal.Instant(rng.Intn(40)))
		default:
			from := temporal.Instant(rng.Intn(40))
			iv = temporal.Interval{From: from, To: from + temporal.Instant(1+rng.Intn(10))}
		}
		from := iv.From
		var err error
		switch op := rng.Intn(12); {
		case op < 6:
			err = m.UpdateAttr(id, "salary", value.Int(int64(rng.Intn(4))), iv, tt)
		case op < 8:
			err = m.UpdateAttr(id, "name", value.String_(fmt.Sprintf("n%d", rng.Intn(3))), iv, tt)
		case op < 9:
			err = m.AddRef(proj, "members", id, iv, tt)
		case op < 10:
			err = m.RemoveRef(proj, "members", id, iv, tt)
		case op < 11:
			err = m.Delete(id, from, tt)
		default:
			err = m.Revive(id, from, tt)
		}
		// Logically impossible operations (reviving the never-deleted,
		// deleting outside the lifespan) may be rejected; the rejection is
		// itself deterministic under the seed, so skipping keeps every run
		// of this sequence identical.
		_ = err
	}
	return append(ids, proj), maxTT
}

// fingerprint renders every (vt, tt >= watermark) answer the manager gives:
// point states, attribute histories, and the full-fidelity load. This is
// the byte-identity the tiering pipeline must preserve.
func fingerprint(t *testing.T, m *Manager, ids []value.ID, wm, maxTT temporal.Instant) string {
	t.Helper()
	var sb strings.Builder
	tts := []temporal.Instant{wm, wm + 3, wm + 7, maxTT, maxTT + 5, Now}
	vts := []temporal.Instant{0, 3, 7, 12, 20, 30, 45, 100}
	for _, id := range ids {
		for _, tt := range tts {
			for _, vt := range vts {
				st, err := m.StateAt(id, vt, tt)
				if err != nil {
					t.Fatalf("StateAt(%v, %v, %v): %v", id, vt, tt, err)
				}
				fmt.Fprintf(&sb, "%v@%v,%v alive=%v vals=%v\n", id, vt, tt, st.Alive, st.Vals)
			}
			for _, attr := range []string{"salary", "name", "members"} {
				hist, err := m.History(id, attr, tt)
				if err != nil {
					continue // attr not on this type
				}
				fmt.Fprintf(&sb, "%v hist %s@%v = %v\n", id, attr, tt, hist)
			}
		}
	}
	return sb.String()
}

// TestArchiveEquivalenceProperty is the tiering pipeline's core contract:
// for every strategy and a family of random histories, every AS OF answer
// at tt >= watermark is byte-identical before compaction, after compaction,
// and after archival.
func TestArchiveEquivalenceProperty(t *testing.T) {
	for _, strat := range []Strategy{StrategyEmbedded, StrategySeparated, StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			totalArchived := 0
			for seed := int64(1); seed <= 5; seed++ {
				m := newArchivedManager(t, strat)
				rng := rand.New(rand.NewSource(seed))
				ids, maxTT := buildRandomHistory(t, m, rng)
				wm := temporal.Instant(40)

				before := fingerprint(t, m, ids, wm, maxTT)
				merged, err := m.Compact(wm)
				if err != nil {
					t.Fatalf("seed %d: Compact: %v", seed, err)
				}
				if got := fingerprint(t, m, ids, wm, maxTT); got != before {
					t.Fatalf("seed %d: answers changed after compaction (%d merged):\n%s",
						seed, merged, firstDiff(before, got))
				}
				archived, err := m.ArchiveOlderThan(wm)
				if err != nil {
					t.Fatalf("seed %d: ArchiveOlderThan: %v", seed, err)
				}
				totalArchived += archived
				if got := fingerprint(t, m, ids, wm, maxTT); got != before {
					t.Fatalf("seed %d: answers changed after archival (%d archived):\n%s",
						seed, archived, firstDiff(before, got))
				}
				// A second run over the same watermark must be a no-op: the
				// cold versions are already out of the hot store.
				again, err := m.ArchiveOlderThan(wm)
				if err != nil {
					t.Fatalf("seed %d: re-archive: %v", seed, err)
				}
				if again != 0 {
					t.Errorf("seed %d: re-archive moved %d versions, want 0", seed, again)
				}
				// Full-fidelity loads must keep working after migration (the
				// archive is merged back transparently).
				for _, id := range ids {
					if _, err := m.Load(id); err != nil {
						t.Fatalf("seed %d: Load(%v) after archival: %v", seed, id, err)
					}
				}
			}
			if totalArchived == 0 {
				t.Errorf("no versions archived across any seed — the pipeline never engaged")
			}
		})
	}
}

// firstDiff returns the first differing line pair for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  before: %s\n  after:  %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(al), len(bl))
}

// TestArchiveVacuumInteraction: a vacuum bound at or past the archive
// watermark purges archived versions too (the pointer is dropped); below
// it, the pointer survives and deep reads still work.
func TestArchiveVacuumInteraction(t *testing.T) {
	for _, strat := range []Strategy{StrategyEmbedded, StrategySeparated, StrategyTuple} {
		t.Run(strat.String(), func(t *testing.T) {
			m := newArchivedManager(t, strat)
			id, err := m.Insert("Emp", map[string]value.V{
				"name": value.String_("k"), "salary": value.Int(0),
			}, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 20; i++ {
				if err := m.UpdateAttr(id, "salary", value.Int(int64(i)), temporal.Open(temporal.Instant(i)), temporal.Instant(10+i)); err != nil {
					t.Fatal(err)
				}
			}
			wm := temporal.Instant(20)
			if _, err := m.ArchiveOlderThan(wm); err != nil {
				t.Fatal(err)
			}
			deepBefore, err := m.StateAt(id, 5, 15)
			if err != nil {
				t.Fatal(err)
			}
			// Vacuum below the watermark: archived history must survive.
			if _, err := m.Vacuum(15); err != nil {
				t.Fatal(err)
			}
			deepAfter, err := m.StateAt(id, 5, 15)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(deepBefore.Vals) != fmt.Sprint(deepAfter.Vals) {
				t.Errorf("vacuum below watermark changed archived answer: %v -> %v",
					deepBefore.Vals, deepAfter.Vals)
			}
			// Vacuum at the watermark: archived versions are purged with the
			// hot dead ones; answers at tt >= wm are untouched.
			hot, err := m.StateAt(id, 30, Now)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Vacuum(wm); err != nil {
				t.Fatal(err)
			}
			hotAfter, err := m.StateAt(id, 30, Now)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(hot.Vals) != fmt.Sprint(hotAfter.Vals) {
				t.Errorf("vacuum at watermark changed hot answer: %v -> %v", hot.Vals, hotAfter.Vals)
			}
		})
	}
}
