package atom

import (
	"testing"

	"tcodm/internal/temporal"
)

// Micro-benchmarks of the query-time reader and the full decoder on the
// shape the repository benchmark's stores have: one employee, 33 versions
// of salary. A ten-second local signal for a decode change:
//
//	go test -run '^$' -bench . -benchtime 2000x ./internal/atom

func BenchmarkRead(b *testing.B) {
	questions := []struct {
		name   string
		rs     *ReadSet
		vt, tt temporal.Instant
	}{
		{"StateAtPast", readState, 15, Now},
		{"StateAtNow", readState, 1000, Now},
		{"SliceOneAttrPast", &ReadSet{State: true, Attrs: []string{"salary"}}, 15, Now},
		{"History", &ReadSet{Histories: []string{"salary"}}, 0, Now},
		{"Lifespan", readLifespan, 0, Now},
	}
	for _, strat := range Strategies() {
		m := newManager(b, strat)
		id := longHistory(b, m, 32)
		for _, q := range questions {
			b.Run(strat.String()+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Read(id, q.rs, q.vt, q.tt, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

var decoded *Atom

func BenchmarkDecodeFull(b *testing.B) {
	m := newManager(b, StrategyEmbedded)
	a, err := m.Load(longHistory(b, m, 32))
	if err != nil {
		b.Fatal(err)
	}
	rec := EncodeFull(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decoded, err = DecodeFull(rec); err != nil {
			b.Fatal(err)
		}
	}
}
