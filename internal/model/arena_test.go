package model

import (
	"testing"

	"idde/internal/rng"
)

// fillRandom walks every user onto a random covering decision.
func fillRandom(in *Instance, l *Ledger, s *rng.Stream) {
	for j := 0; j < in.M(); j++ {
		if vs := in.Top.Coverage[j]; len(vs) > 0 {
			i := vs[s.IntN(len(vs))]
			l.Move(j, Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
		}
	}
}

// TestSpanArenaRecyclesSpans exercises the backing-slab allocator
// directly: released spans must come back through the free list (inUse
// returns to zero; total stops growing once the working set repeats)
// and allocations must be capacity-clipped so a holder cannot append
// into a neighbouring span.
func TestSpanArenaRecyclesSpans(t *testing.T) {
	var a spanArena[float64]
	sizes := []int{40, 333, 70, 1024, 512}
	var spans [][]float64
	for _, n := range sizes {
		s := a.alloc(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("alloc(%d): len=%d cap=%d, want exact-capacity span", n, len(s), cap(s))
		}
		spans = append(spans, s)
	}
	inUse := 0
	for _, n := range sizes {
		inUse += n
	}
	if a.inUse != inUse {
		t.Fatalf("inUse=%d after allocs, want %d", a.inUse, inUse)
	}
	for _, s := range spans {
		a.release(s)
	}
	if a.inUse != 0 {
		t.Fatalf("inUse=%d after releasing everything, want 0", a.inUse)
	}
	total := a.total
	// Re-allocating the same working set must be served from the free
	// list without growing the slabs.
	for round := 0; round < 10; round++ {
		spans = spans[:0]
		for _, n := range sizes {
			spans = append(spans, a.alloc(n))
		}
		for _, s := range spans {
			a.release(s)
		}
	}
	if a.total != total {
		t.Fatalf("arena grew from %d to %d re-allocating a repeated working set", total, a.total)
	}
}

// TestBudgetedInterCellBitIdentical is the bounded-residency
// differential: with the row budget forcing constant faults, fold
// fallbacks, second-chance evictions and rebuilds, every hypothetical
// inter-cell interference must equal the unbounded ledger's value
// bit-for-bit — the fallback replays the same left-to-right fold the
// maintained cells hold, and rebuilt rows recompute exactly that fold.
func TestBudgetedInterCellBitIdentical(t *testing.T) {
	for _, seed := range []uint64{2, 9, 2022} {
		in := genInstance(t, 14, 100, 4, seed)
		s := rng.New(seed * 13)
		full := NewLedger(in, NewAllocation(in.M()))
		tight := NewLedger(in, NewAllocation(in.M()))
		tight.SetAggRowBudget(2)

		for step := 0; step < 20; step++ {
			for b := 0; b < 10; b++ {
				j := s.IntN(in.M())
				a := randomMove(in, j, s)
				full.Move(j, a)
				tight.Move(j, a)
			}
			for probe := 0; probe < 60; probe++ {
				j := s.IntN(in.M())
				vs := in.Top.Coverage[j]
				if len(vs) == 0 {
					continue
				}
				i := vs[s.IntN(len(vs))]
				a := Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
				if fa, fb := full.interCellOf(j, a), tight.interCellOf(j, a); fa != fb {
					t.Fatalf("seed %d step %d: interCell(%d,%v) budget=2 %v != unbounded %v",
						seed, step, j, a, fb, fa)
				}
				if ba, bb := full.Benefit(j, a), tight.Benefit(j, a); ba != bb {
					t.Fatalf("seed %d step %d: Benefit(%d,%v) diverges under budget", seed, step, j, a)
				}
			}
		}
		st := tight.AggMemStats()
		if st.ResidentRows > 2 {
			t.Fatalf("resident rows %d exceed budget 2", st.ResidentRows)
		}
		if st.FallbackEvals == 0 {
			t.Fatalf("budget=2 walk never took the fold fallback; the differential exercised nothing")
		}
	}
}

// TestEvictRebuildBitIdentical pins the fold invariant end to end: a
// row's cells, captured while resident, must reappear bit-identically
// after the row is evicted (fold-fallback reads) and again after it is
// rebuilt (budget raised, row re-faulted).
func TestEvictRebuildBitIdentical(t *testing.T) {
	in := genInstance(t, 10, 70, 3, 5)
	s := rng.New(41)
	l := NewLedger(in, NewAllocation(in.M()))
	fillRandom(in, l, s)
	l.WarmAggregates()

	type probe struct {
		j int
		a Alloc
	}
	var probes []probe
	var want []float64
	for len(probes) < 200 {
		j := s.IntN(in.M())
		vs := in.Top.Coverage[j]
		if len(vs) == 0 {
			continue
		}
		i := vs[s.IntN(len(vs))]
		a := Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
		probes = append(probes, probe{j, a})
		want = append(want, float64(l.interCellOf(j, a)))
	}

	check := func(label string) {
		t.Helper()
		for pi, p := range probes {
			if got := float64(l.interCellOf(p.j, p.a)); got != want[pi] {
				t.Fatalf("%s: interCell(%d,%v) = %g, want %g", label, p.j, p.a, got, want[pi])
			}
		}
	}
	l.SetAggRowBudget(1) // evict all but one row
	if st := l.AggMemStats(); st.ResidentRows > 1 || st.Evictions == 0 {
		t.Fatalf("budget=1: resident=%d evictions=%d", st.ResidentRows, st.Evictions)
	}
	check("after eviction (fold fallback)")
	l.SetAggRowBudget(0) // unlimited again
	l.WarmAggregates()   // rebuild every row from the survivor lists
	check("after rebuild")
	if st := l.AggMemStats(); st.ResidentRows != in.N() {
		t.Fatalf("after rebuild: resident=%d, want %d", st.ResidentRows, in.N())
	}
}

// TestAggMemStatsAccounting sanity-checks the memory accounting under
// budget pressure: residency never exceeds the budget, in-use bytes
// never exceed the slab footprint, and the dense-equivalent baseline
// dominates the resident bytes once rows have been evicted.
func TestAggMemStatsAccounting(t *testing.T) {
	in := genInstance(t, 12, 90, 4, 8)
	s := rng.New(77)
	l := NewLedger(in, NewAllocation(in.M()))
	l.SetAggRowBudget(3)
	fillRandom(in, l, s)
	l.WarmAggregates()
	// Uniform probe pressure drives faults past the promotion threshold.
	for probe := 0; probe < 4000; probe++ {
		j := s.IntN(in.M())
		vs := in.Top.Coverage[j]
		if len(vs) == 0 {
			continue
		}
		i := vs[s.IntN(len(vs))]
		_ = l.Benefit(j, Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
	}
	st := l.AggMemStats()
	if st.ResidentRows > 3 {
		t.Fatalf("resident rows %d exceed budget %d", st.ResidentRows, st.RowBudget)
	}
	if st.InUseBytes > st.ArenaBytes {
		t.Fatalf("in-use bytes %d exceed arena bytes %d", st.InUseBytes, st.ArenaBytes)
	}
	if st.EverBuiltRows <= st.ResidentRows || st.Evictions == 0 {
		t.Fatalf("expected eviction churn: ever=%d resident=%d evictions=%d",
			st.EverBuiltRows, st.ResidentRows, st.Evictions)
	}
	if st.DenseEquivBytes <= st.InUseBytes {
		t.Fatalf("dense-equivalent %d does not dominate resident %d under budget",
			st.DenseEquivBytes, st.InUseBytes)
	}
}
