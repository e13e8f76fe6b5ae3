package atom

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tcodm/internal/obs"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// renderState prints a state restricted to the attributes named (nil = all
// it holds, back-references included), in a stable form.
func renderState(st *State, attrs []string, backRefs bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v %s alive=%v", st.ID, st.Type, st.Alive)
	if attrs == nil {
		fmt.Fprintf(&sb, " vals=%v sets=%v", st.Vals, st.Sets)
	} else {
		for _, a := range attrs {
			if v, ok := st.Vals[a]; ok {
				fmt.Fprintf(&sb, " %s=%v", a, v)
			} else if vs, ok := st.Sets[a]; ok {
				fmt.Fprintf(&sb, " %s=%v", a, vs)
			} else {
				fmt.Fprintf(&sb, " %s=<absent>", a)
			}
		}
	}
	if backRefs {
		fmt.Fprintf(&sb, " backrefs=%v", st.BackRefs)
	}
	return sb.String()
}

// randomReadSet draws a read set over typeName's attributes: nil
// (everything), the public full state, or a random projection with random
// histories and lifespan.
func randomReadSet(rng *rand.Rand, attrs []string) *ReadSet {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return &ReadSet{State: true, AllAttrs: true, Lifespan: rng.Intn(2) == 0}
	}
	pick := func() []string {
		var out []string
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				out = append(out, a)
			}
		}
		return out
	}
	return &ReadSet{State: rng.Intn(3) > 0, Attrs: pick(), Histories: pick(), Lifespan: rng.Intn(2) == 0}
}

// checkReaderAgainstReference compares one Read with the materialize-then-
// filter reference, restricted to the read set, and returns what the read
// was charged.
func checkReaderAgainstReference(t *testing.T, m *Manager, id value.ID, rs *ReadSet, vt, tt temporal.Instant) obs.Resources {
	t.Helper()
	where := fmt.Sprintf("%s Read(%v, %+v, vt=%v, tt=%v)", m.opts.Strategy, id, rs, vt, tt)
	var acc, again obs.Resources
	rd, err := m.Read(id, rs, vt, tt, &acc)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if _, err := m.Read(id, rs, vt, tt, &again); err != nil || acc != again {
		t.Fatalf("%s: second read charged %v, first %v (err %v)", where, again, acc, err)
	}
	if acc.Pages == 0 {
		t.Fatalf("%s: charged no pages", where)
	}

	wantState := rs == nil || rs.State
	if (rd.State != nil) != wantState {
		t.Fatalf("%s: state present=%v, want %v", where, rd.State != nil, wantState)
	}
	if wantState {
		ref, err := refState(m, id, vt, tt)
		if err != nil {
			t.Fatalf("%s: reference state: %v", where, err)
		}
		all := rs == nil || rs.AllAttrs
		attrs := []string(nil)
		if !all {
			attrs = rs.Attrs
			if attrs == nil {
				attrs = []string{}
			}
			if n := len(rd.State.Vals) + len(rd.State.Sets); n != len(attrs) {
				t.Fatalf("%s: state holds %d attributes, read set names %d", where, n, len(attrs))
			}
		}
		if got, want := renderState(rd.State, attrs, all), renderState(ref, attrs, all); got != want {
			t.Fatalf("%s:\n reader    %s\n reference %s", where, got, want)
		}
	}

	t0, _ := m.schema.AtomType(typeOfForTest(t, m, id))
	var hists []string
	if rs == nil {
		for _, at := range t0.Attrs {
			hists = append(hists, at.Name)
		}
	} else {
		hists = rs.Histories
	}
	if len(rd.Histories) != len(hists) {
		t.Fatalf("%s: %d histories, want %d", where, len(rd.Histories), len(hists))
	}
	for _, attr := range hists {
		got, ok := rd.History(attr)
		if !ok {
			t.Fatalf("%s: no history of %s", where, attr)
		}
		want, err := refHistory(m, id, attr, tt)
		if err != nil {
			t.Fatalf("%s: reference history of %s: %v", where, attr, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: history of %s\n reader    %v\n reference %v", where, attr, got, want)
		}
	}

	if rs == nil || rs.Lifespan {
		want, err := refLifespan(m, id)
		if err != nil {
			t.Fatalf("%s: reference lifespan: %v", where, err)
		}
		if !rd.Lifespan.Equal(want) {
			t.Fatalf("%s: lifespan %v, reference %v", where, rd.Lifespan, want)
		}
	} else if rd.Lifespan != nil {
		t.Fatalf("%s: lifespan %v not asked for", where, rd.Lifespan)
	}
	return acc
}

func typeOfForTest(t *testing.T, m *Manager, id value.ID) string {
	t.Helper()
	name, err := m.typeOf(id)
	if err != nil {
		t.Fatal(err)
	}
	return name
}

// probeReader checks a manager's every atom at random (vt, tt) points and
// random read sets, plus the corners: before everything, Now, and far
// future. It returns the archive blocks the reads were charged.
func probeReader(t *testing.T, m *Manager, ids []value.ID, maxVT, maxTT temporal.Instant, rng *rand.Rand) (arc uint64) {
	t.Helper()
	for _, id := range ids {
		typ, _ := m.schema.AtomType(typeOfForTest(t, m, id))
		var attrs []string
		for _, at := range typ.Attrs {
			attrs = append(attrs, at.Name)
		}
		for i := 0; i < 40; i++ {
			vt := temporal.Instant(rng.Intn(int(maxVT)+12)) - 1
			tt := temporal.Instant(rng.Intn(int(maxTT) + 3))
			switch rng.Intn(5) {
			case 0:
				tt = Now
			case 1:
				vt = maxVT + 1000
			}
			arc += checkReaderAgainstReference(t, m, id, randomReadSet(rng, attrs), vt, tt).Arc
		}
	}
	return arc
}

// tier compacts and archives everything dead before wm.
func tier(t *testing.T, m *Manager, wm temporal.Instant) {
	t.Helper()
	if _, err := m.Compact(wm); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ArchiveOlderThan(wm); err != nil {
		t.Fatal(err)
	}
}

// TestReaderMatchesReference is the reader's contract: on random histories
// × {embedded, separated, tuple} × {untiered, archived} × random (vt, tt) ×
// random read sets, what Read keeps equals the materialize-everything
// reference restricted to the read set — state, histories and lifespan.
func TestReaderMatchesReference(t *testing.T) {
	for _, archived := range []bool{false, true} {
		name := "untiered"
		if archived {
			name = "archived"
		}
		t.Run(name, func(t *testing.T) {
			arc := map[Strategy]uint64{}
			// The equivalence property's histories: forward-only for all
			// three strategies, retroactive for the two that express it.
			for seed := int64(0); seed < 8; seed++ {
				strategies, retro := Strategies(), false
				if seed >= 5 {
					strategies, retro = []Strategy{StrategyEmbedded, StrategySeparated}, true
				}
				run := buildEquivalence(t, seed, strategies, retro, newArchivedManager)
				rng := rand.New(rand.NewSource(seed))
				for _, s := range strategies {
					if archived {
						tier(t, run.managers[s], run.tt/2)
					}
					arc[s] += probeReader(t, run.managers[s], run.ids, run.vt, run.tt, rng)
				}
			}
			// The tiering property's histories: bounded splices, string
			// values, revivals, many-references and their back-references.
			for _, strat := range Strategies() {
				for seed := int64(1); seed <= 4; seed++ {
					m := newArchivedManager(t, strat)
					rng := rand.New(rand.NewSource(seed))
					ids, maxTT := buildRandomHistory(t, m, rng)
					if archived {
						tier(t, m, 40)
					}
					arc[strat] += probeReader(t, m, ids, 50, maxTT, rng)
				}
			}
			for _, strat := range Strategies() {
				if (arc[strat] > 0) != archived {
					t.Errorf("%s: reads were charged %d archive blocks with archived=%v", strat, arc[strat], archived)
				}
			}
		})
	}
}

// TestReaderReconcilesNewAttributes: an attribute added by schema evolution
// after a record was written reads as Null (an empty set, an empty history)
// from every placement, projected or not.
func TestReaderReconcilesNewAttributes(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		id, err := m.Insert("Dept", map[string]value.V{"name": value.String_("d")}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sch := m.Schema().Clone()
		if err := sch.AddAttribute("Dept", schema.Attribute{Name: "floor", Kind: value.KindInt}); err != nil {
			t.Fatal(err)
		}
		sch.Freeze()
		m.SetSchema(sch)

		st, err := m.StateAt(id, 5, Now)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := st.Vals["floor"]; !ok || !v.IsNull() {
			t.Errorf("full state: floor = %v (present %v), want Null", v, ok)
		}
		rd, err := m.Read(id, &ReadSet{State: true, Attrs: []string{"floor"}, Histories: []string{"floor"}}, 5, Now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := rd.State.Vals["floor"]; !ok || !v.IsNull() {
			t.Errorf("projected state: floor = %v (present %v), want Null", v, ok)
		}
		if h, ok := rd.History("floor"); !ok || len(h) != 0 {
			t.Errorf("history of floor = %v (present %v), want empty", h, ok)
		}
	})
}

// longHistory inserts one employee and gives it n salary raises: the
// 33-version shape the benchmark's stores have.
func longHistory(tb testing.TB, m *Manager, n int) value.ID {
	tb.Helper()
	id, err := m.Insert("Emp", map[string]value.V{
		"name": value.String_("emp-0001"), "salary": value.Int(1000),
	}, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		at := temporal.Instant(10 * i)
		if err := m.UpdateAttr(id, "salary", value.Int(int64(1000+i)), temporal.Open(at), temporal.Instant(1+i)); err != nil {
			tb.Fatal(err)
		}
	}
	return id
}

// TestReaderCountersAndDecodeTime pins what the atom.* counters mean now:
// one fast or full load per reader call (fast = answered without leaving
// the home record), and one atom.decode_ns observation per call on every
// placement.
func TestReaderCountersAndDecodeTime(t *testing.T) {
	forAllStrategies(t, func(t *testing.T, m *Manager) {
		reg := obs.New()
		m.SetMetrics(reg)
		id := longHistory(t, m, 40) // separated: more than one 32-entry segment
		calls := uint64(0)
		read := func(rs *ReadSet, vt, tt temporal.Instant) {
			t.Helper()
			if _, err := m.Read(id, rs, vt, tt, nil); err != nil {
				t.Fatal(err)
			}
			calls++
		}
		before := m.Stats()
		read(readState, 1000, Now) // the live present
		afterNow := m.Stats()
		if afterNow.FastLoads != before.FastLoads+1 || afterNow.FullLoads != before.FullLoads {
			t.Errorf("NOW read: fast %d->%d full %d->%d, want one fast load",
				before.FastLoads, afterNow.FastLoads, before.FullLoads, afterNow.FullLoads)
		}
		read(readState, 15, Now) // the past
		read(&ReadSet{Histories: []string{"salary"}}, 0, Now)
		read(readLifespan, 0, Now)
		after := m.Stats()
		if got := (after.FastLoads - before.FastLoads) + (after.FullLoads - before.FullLoads); got != calls {
			t.Errorf("fast+full loads = %d over %d reader calls", got, calls)
		}
		wantFull := uint64(2) // past state and history leave the home record...
		if m.opts.Strategy == StrategyEmbedded {
			wantFull = 0 // ...unless the history is embedded in it
		}
		if m.opts.Strategy == StrategyTuple {
			wantFull = 3 // the lifespan walks the whole snapshot chain too
		}
		if got := after.FullLoads - before.FullLoads; got != wantFull {
			t.Errorf("full loads = %d, want %d", got, wantFull)
		}
		if n := reg.Histogram("atom.decode_ns").Snapshot().Count; n != calls {
			t.Errorf("atom.decode_ns observed %d times over %d reader calls", n, calls)
		}
	})
}

// TestTupleReaderStopsAtSnapshotInForce: a time-slice under tuple
// versioning walks the chain only as far as the snapshot in force.
func TestTupleReaderStopsAtSnapshotInForce(t *testing.T) {
	m := newManager(t, StrategyTuple)
	id := longHistory(t, m, 32)
	var acc obs.Resources
	if _, err := m.StateAtAcc(id, 1000, Now, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ChainSteps != 1 || acc.Pages != 1 {
		t.Errorf("NOW slice charged %v, want one snapshot on one page", acc)
	}
	acc = obs.Resources{}
	if _, err := m.StateAtAcc(id, 295, Now, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ChainSteps != 4 { // raises at 320, 310, 300 are too new; 290 is in force
		t.Errorf("slice at 295 walked %d snapshots, want 4", acc.ChainSteps)
	}
}

// TestReaderReleasesPinsOnError corrupts stored records — the home record
// and, for the chained placements, a record further down — and requires the
// failing read to leave no frame pinned: the walker's error surfaces from
// inside the heap view, with the page still held.
func TestReaderReleasesPinsOnError(t *testing.T) {
	for _, strat := range Strategies() {
		for _, deep := range []bool{false, true} {
			name := strat.String() + "/home"
			if deep {
				name = strat.String() + "/chain"
			}
			t.Run(name, func(t *testing.T) {
				dev := storage.NewMemDevice()
				pool := storage.NewBufferPool(dev, 64)
				if err := storage.InitMeta(pool); err != nil {
					t.Fatal(err)
				}
				heap := storage.NewHeap(pool, nil)
				m, err := NewManager(heap, pool, personnelSchema(t), Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				id := longHistory(t, m, 40)
				rid, err := m.homeRID(id)
				if err != nil {
					t.Fatal(err)
				}
				if deep {
					// Step to the record behind the home record.
					data, err := heap.Fetch(rid)
					if err != nil {
						t.Fatal(err)
					}
					switch strat {
					case StrategyEmbedded:
						t.Skip("an embedded atom is one record")
					case StrategySeparated:
						_, hdr, err := DecodeCurrent(data)
						if err != nil {
							t.Fatal(err)
						}
						rid = hdr.Head
					case StrategyTuple:
						s, err := DecodeSnapshot(data)
						if err != nil {
							t.Fatal(err)
						}
						rid = s.Prev
					}
				}
				data, err := heap.Fetch(rid)
				if err != nil {
					t.Fatal(err)
				}
				// Keep the kind tag and the fixed header, cut into the body.
				if err := heap.Update(rid, data[:len(data)*2/3]); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Read(id, nil, 15, Now, nil); err == nil {
					t.Fatal("read of a truncated record succeeded")
				}
				if n := pool.Stats().Pinned; n != 0 {
					t.Errorf("%d frames still pinned after the failed read", n)
				}
			})
		}
	}
}
