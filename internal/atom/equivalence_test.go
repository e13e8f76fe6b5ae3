package atom

import (
	"fmt"
	"math/rand"
	"testing"

	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// The equivalence property: all three physical strategies realize the SAME
// logical temporal model. This test drives random operation sequences
// through every strategy and through a trivially correct in-memory shadow
// model, then cross-checks StateAt answers over a grid of (valid,
// transaction) time points. Divergence in any strategy is a bug in its
// mapping, not in the model.

// shadowVersion mirrors one recorded value.
type shadowVersion struct {
	valid temporal.Interval
	tfrom temporal.Instant
	tto   temporal.Instant // Forever while live
	val   value.V
}

func (v shadowVersion) visible(vt, tt temporal.Instant) bool {
	return v.valid.Contains(vt) && v.tfrom <= tt && tt < v.tto
}

// shadowAtom is the obviously correct model: flat version lists.
type shadowAtom struct {
	id    value.ID
	life  temporal.Element
	attrs map[string][]shadowVersion
}

type shadowDB struct {
	atoms map[value.ID]*shadowAtom
}

func newShadow() *shadowDB { return &shadowDB{atoms: map[value.ID]*shadowAtom{}} }

func (s *shadowDB) insert(id value.ID, vals map[string]value.V, from, tt temporal.Instant) {
	a := &shadowAtom{id: id, life: temporal.NewElement(temporal.Open(from)), attrs: map[string][]shadowVersion{}}
	for k, v := range vals {
		a.attrs[k] = []shadowVersion{{valid: temporal.Open(from), tfrom: tt, tto: temporal.Forever, val: v}}
	}
	s.atoms[id] = a
}

// update splices a value over iv exactly as the model specifies.
func (s *shadowDB) update(id value.ID, attr string, v value.V, iv temporal.Interval, tt temporal.Instant) {
	a := s.atoms[id]
	var out []shadowVersion
	for _, old := range a.attrs[attr] {
		if old.tto != temporal.Forever || !old.valid.Overlaps(iv) {
			out = append(out, old)
			continue
		}
		closed := old
		closed.tto = tt
		out = append(out, closed)
		for _, rest := range (temporal.Element{old.valid}).SubtractInterval(iv) {
			out = append(out, shadowVersion{valid: rest, tfrom: tt, tto: temporal.Forever, val: old.val})
		}
	}
	out = append(out, shadowVersion{valid: iv, tfrom: tt, tto: temporal.Forever, val: v})
	a.attrs[attr] = out
}

func (s *shadowDB) deleteFrom(id value.ID, from temporal.Instant) {
	a := s.atoms[id]
	a.life = a.life.SubtractInterval(temporal.Open(from))
}

func (s *shadowDB) valueAt(id value.ID, attr string, vt, tt temporal.Instant) value.V {
	a := s.atoms[id]
	vs := a.attrs[attr]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].visible(vt, tt) {
			return vs[i].val
		}
	}
	return value.Null
}

func (s *shadowDB) aliveAt(id value.ID, vt temporal.Instant) bool {
	return s.atoms[id].life.Contains(vt)
}

// TestStrategyEquivalenceForwardOps drives forward-only (open-ended)
// updates — the subset all three strategies support — and cross-checks.
func TestStrategyEquivalenceForwardOps(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEquivalence(t, seed, Strategies(), false)
		})
	}
}

// TestStrategyEquivalenceRetroactive adds bounded-past splices, which the
// tuple strategy cannot express; embedded and separated must still agree
// with the shadow.
func TestStrategyEquivalenceRetroactive(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEquivalence(t, seed, []Strategy{StrategyEmbedded, StrategySeparated}, true)
		})
	}
}

// Strategies returns all strategies (test helper mirroring the experiments
// package to avoid an import cycle).
func Strategies() []Strategy {
	return []Strategy{StrategyEmbedded, StrategySeparated, StrategyTuple}
}

// equivalenceRun is one random operation sequence applied to a manager per
// strategy and to the shadow model.
type equivalenceRun struct {
	managers map[Strategy]*Manager
	shadow   *shadowDB
	ids      []value.ID
	vt, tt   temporal.Instant // the largest valid and transaction times used
}

// buildEquivalence drives the seeded op sequence. newMgr makes each
// strategy's manager (newManager, or newArchivedManager when the caller
// goes on to tier the history).
func buildEquivalence(t *testing.T, seed int64, strategies []Strategy, retroactive bool,
	newMgr func(testing.TB, Strategy) *Manager) *equivalenceRun {
	t.Helper()
	const (
		nAtoms = 8
		nOps   = 120
	)
	managers := map[Strategy]*Manager{}
	for _, s := range strategies {
		managers[s] = newMgr(t, s)
	}
	shadow := newShadow()

	rng := rand.New(rand.NewSource(seed))
	tt := temporal.Instant(0)
	var ids []value.ID
	// lastFrom tracks each atom's newest valid start, keeping tuple-legal
	// forward updates monotone per atom. Deleted atoms are retired from
	// the op pool: mutating a dead atom's history is legal under attribute
	// versioning but inexpressible under tuple versioning, so the common
	// subset avoids it.
	lastFrom := map[value.ID]temporal.Instant{}
	deleted := map[value.ID]bool{}
	live := func() []value.ID {
		var out []value.ID
		for _, id := range ids {
			if !deleted[id] {
				out = append(out, id)
			}
		}
		return out
	}
	vt := temporal.Instant(0)

	for op := 0; op < nOps; op++ {
		tt++
		vt += temporal.Instant(rng.Intn(5))
		switch {
		case len(ids) < nAtoms:
			vals := map[string]value.V{
				"name":   value.String_(fmt.Sprintf("a%d", len(ids))),
				"salary": value.Int(int64(rng.Intn(1000))),
			}
			var got value.ID
			for _, s := range strategies {
				id, err := managers[s].Insert("Emp", vals, vt, tt)
				if err != nil {
					t.Fatal(err)
				}
				got = id
			}
			shadow.insert(got, vals, vt, tt)
			ids = append(ids, got)
			lastFrom[got] = vt
		case retroactive && rng.Intn(4) == 0 && len(live()) > 0:
			// Bounded-past correction.
			pool := live()
			id := pool[rng.Intn(len(pool))]
			lo := temporal.Instant(rng.Intn(int(vt) + 1))
			hi := lo + temporal.Instant(1+rng.Intn(10))
			iv := temporal.NewInterval(lo, hi)
			v := value.Int(int64(rng.Intn(1000)))
			for _, s := range strategies {
				if err := managers[s].UpdateAttr(id, "salary", v, iv, tt); err != nil {
					t.Fatalf("strategy %s retroactive update: %v", s, err)
				}
			}
			shadow.update(id, "salary", v, iv, tt)
		case rng.Intn(10) == 0 && len(live()) > 2:
			// Valid-time delete of a random live atom from a future instant.
			pool := live()
			id := pool[rng.Intn(len(pool))]
			// Keep the deletion after the atom's newest version start so
			// the tuple chain's valid instants stay monotone.
			from := temporal.Max(vt, lastFrom[id]) + temporal.Instant(rng.Intn(5))
			for _, s := range strategies {
				if err := managers[s].Delete(id, from, tt); err != nil {
					t.Fatalf("strategy %s delete: %v", s, err)
				}
			}
			shadow.deleteFrom(id, from)
			deleted[id] = true
		default:
			// Forward update of a live atom, monotone per atom (tuple-legal).
			pool := live()
			if len(pool) == 0 {
				continue
			}
			id := pool[rng.Intn(len(pool))]
			from := lastFrom[id] + temporal.Instant(rng.Intn(6))
			v := value.Int(int64(rng.Intn(1000)))
			for _, s := range strategies {
				if err := managers[s].UpdateAttr(id, "salary", v, temporal.Open(from), tt); err != nil {
					t.Fatalf("strategy %s update: %v", s, err)
				}
			}
			shadow.update(id, "salary", v, temporal.Open(from), tt)
			lastFrom[id] = from
		}
	}
	return &equivalenceRun{managers: managers, shadow: shadow, ids: ids, vt: vt, tt: tt}
}

func runEquivalence(t *testing.T, seed int64, strategies []Strategy, retroactive bool) {
	t.Helper()
	run := buildEquivalence(t, seed, strategies, retroactive, newManager)
	managers, shadow, ids, vt, tt := run.managers, run.shadow, run.ids, run.vt, run.tt

	// Cross-check a (vt, tt) grid, including Now.
	ttPoints := []temporal.Instant{1, tt / 4, tt / 2, tt - 1, tt, Now}
	for _, id := range ids {
		for probeVT := temporal.Instant(0); probeVT <= vt+10; probeVT += 3 {
			for _, probeTT := range ttPoints {
				effTT := probeTT
				if effTT == Now {
					effTT = temporal.Forever - 1
				}
				wantAlive := shadow.aliveAt(id, probeVT)
				want := shadow.valueAt(id, "salary", probeVT, effTT)
				for _, s := range Strategies() {
					m, ok := managers[s]
					if !ok {
						continue
					}
					st, err := m.StateAt(id, probeVT, probeTT)
					if err != nil {
						t.Fatalf("strategy %s StateAt(%v, %v, %v): %v", s, id, probeVT, probeTT, err)
					}
					// Tuple-strategy deletes are whole-snapshot events;
					// its alive semantics match only at the newest tt.
					if st.Alive != wantAlive && (s != StrategyTuple || probeTT == Now) {
						t.Fatalf("strategy %s: alive(%v at vt=%v tt=%v) = %v, shadow %v",
							s, id, probeVT, probeTT, st.Alive, wantAlive)
					}
					got := st.Vals["salary"]
					if !got.Equal(want) {
						t.Fatalf("strategy %s: salary(%v at vt=%v tt=%v) = %v, shadow %v",
							s, id, probeVT, probeTT, got, want)
					}
				}
			}
		}
	}
	// Histories agree with the shadow at the latest transaction time.
	for _, id := range ids {
		for _, s := range strategies {
			hist, err := managers[s].History(id, "salary", Now)
			if err != nil {
				t.Fatal(err)
			}
			// Spot-check the step function the history denotes. Values
			// outside the lifespan are implementation-defined (tuple
			// versioning truncates at deletion; attribute versioning keeps
			// open versions), so probe only within the lifespan.
			for probeVT := temporal.Instant(0); probeVT <= vt+10; probeVT += 7 {
				if !shadow.aliveAt(id, probeVT) {
					continue
				}
				var got value.V = value.Null
				for _, ver := range hist {
					if ver.Valid.Contains(probeVT) {
						got = ver.Val
						break
					}
				}
				want := shadow.valueAt(id, "salary", probeVT, temporal.Forever-1)
				if !got.Equal(want) {
					t.Fatalf("strategy %s: history of %v at vt=%v = %v, shadow %v", s, id, probeVT, got, want)
				}
			}
		}
	}
}
