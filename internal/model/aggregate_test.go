package model

import (
	"math"
	"testing"

	"idde/internal/rng"
	"idde/internal/units"
)

// interCellOf reads the Eq. 2 inter-cell term through the evaluator
// entry Benefit and SINR use, whichever interference path is active.
func (l *Ledger) interCellOf(j int, a Alloc) units.Watts {
	_, f := l.link(j, a)
	return f
}

// fillRandom walks every user onto a random covering decision.
func fillRandom(in *Instance, l *Ledger, s *rng.Stream) {
	for j := 0; j < in.M(); j++ {
		if vs := in.Top.Coverage[j]; len(vs) > 0 {
			i := vs[s.IntN(len(vs))]
			l.Move(j, Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
		}
	}
}

// randomMove draws a random decision for user j: mostly a covering
// (server, channel), occasionally Unallocated.
func randomMove(in *Instance, j int, s *rng.Stream) Alloc {
	if s.Bool(0.1) {
		return Unallocated
	}
	vs := in.Top.Coverage[j]
	if len(vs) == 0 {
		return Unallocated
	}
	i := vs[s.IntN(len(vs))]
	return Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
}

// TestAggregateInterCellMatchesNaive is the ledger differential test:
// the incremental (receiver, source, channel) aggregates and the naive
// occupancy walk evaluate the same Eq. 2 sum, so after any seeded
// random walk of moves and removals every hypothetical interference,
// SINR and benefit must agree up to summation-order rounding.
func TestAggregateInterCellMatchesNaive(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7, 2022} {
		in := genInstance(t, 12, 80, 4, seed)
		s := rng.New(seed * 31)
		agg := NewLedger(in, NewAllocation(in.M()))
		ref := NewLedger(in, NewAllocation(in.M()))
		ref.SetNaiveInterference(true)

		for step := 0; step < 25; step++ {
			for b := 0; b < 12; b++ {
				j := s.IntN(in.M())
				a := randomMove(in, j, s)
				agg.Move(j, a)
				ref.Move(j, a)
			}
			// Compare a swath of hypothetical decisions, including
			// out-of-coverage receivers' channels via Coverage walk.
			for probe := 0; probe < 40; probe++ {
				j := s.IntN(in.M())
				vs := in.Top.Coverage[j]
				if len(vs) == 0 {
					continue
				}
				i := vs[s.IntN(len(vs))]
				a := Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
				fa := float64(agg.interCellOf(j, a))
				fr := float64(ref.interCellOf(j, a))
				if math.Abs(fa-fr) > 1e-9*math.Max(1e-30, fr) {
					t.Fatalf("seed %d step %d: interCell(%d,%v) aggregate %g != naive %g",
						seed, step, j, a, fa, fr)
				}
				ba, br := agg.Benefit(j, a), ref.Benefit(j, a)
				if math.Abs(ba-br) > 1e-9*math.Max(1, br) {
					t.Fatalf("seed %d step %d: Benefit(%d,%v) aggregate %g != naive %g",
						seed, step, j, a, ba, br)
				}
				sa, sr := agg.SINR(j, a), ref.SINR(j, a)
				if math.Abs(sa-sr) > 1e-9*math.Max(1, sr) {
					t.Fatalf("seed %d step %d: SINR mismatch %g vs %g", seed, step, sa, sr)
				}
			}
			// Drift guard: the mutated aggregate ledger must also agree
			// with a freshly built one (whose rows are recomputed from
			// the registries, not incrementally maintained).
			fresh := NewLedger(in, agg.Alloc())
			for j := 0; j < in.M(); j++ {
				ri, rf := float64(agg.CurrentRate(j)), float64(fresh.CurrentRate(j))
				if math.Abs(ri-rf) > 1e-9*math.Max(1, rf) {
					t.Fatalf("seed %d step %d: incremental aggregate drifted: rate %g vs fresh %g",
						seed, step, ri, rf)
				}
			}
		}
	}
}

// TestAggregateEmptiedChannelIsExactlyZero pins down the fp-drift
// guard: a channel whose occupants all leave must report exactly zero
// interference (not residual rounding), because empty channels are
// where exact benefit ties occur and residues would flip argmax
// decisions against the reference path.
func TestAggregateEmptiedChannelIsExactlyZero(t *testing.T) {
	in := genInstance(t, 8, 60, 3, 5)
	l := NewLedger(in, NewAllocation(in.M()))
	s := rng.New(17)
	// Churn users on and off channel 0 of their first covering server.
	joined := []int{}
	for j := 0; j < in.M(); j++ {
		if len(in.Top.Coverage[j]) == 0 {
			continue
		}
		i := in.Top.Coverage[j][0]
		l.Move(j, Alloc{Server: i, Channel: 0})
		joined = append(joined, j)
		// Force the aggregate rows to materialize mid-churn.
		l.interCellOf(j, Alloc{Server: i, Channel: 0})
	}
	s.Shuffle(len(joined), func(a, b int) { joined[a], joined[b] = joined[b], joined[a] })
	for _, j := range joined {
		l.Move(j, Unallocated)
	}
	// Every channel is empty again: every hypothetical decision must see
	// exactly zero inter-cell interference on the aggregate path.
	for _, j := range joined {
		for _, i := range in.Top.Coverage[j] {
			for x := 0; x < in.Top.Servers[i].Channels; x++ {
				if f := float64(l.interCellOf(j, Alloc{Server: i, Channel: x})); f != 0 {
					t.Fatalf("emptied channel (%d,%d) reports interference %g for user %d", i, x, f, j)
				}
			}
		}
	}
}

// TestSetNaiveInterferenceRoundTrip: toggling the reference path on and
// off must not serve stale aggregates.
func TestSetNaiveInterferenceRoundTrip(t *testing.T) {
	in := genInstance(t, 8, 50, 3, 13)
	s := rng.New(19)
	l := NewLedger(in, randomValidAllocation(in, s))
	j := 0
	for len(in.Top.Coverage[j]) == 0 {
		j++
	}
	a := Alloc{Server: in.Top.Coverage[j][0], Channel: 0}
	before := float64(l.interCellOf(j, a)) // builds aggregate rows
	l.SetNaiveInterference(true)
	// Mutate while the aggregates are disabled: rows must not be
	// maintained, and must be rebuilt after re-enabling.
	for step := 0; step < 40; step++ {
		q := s.IntN(in.M())
		l.Move(q, randomMove(in, q, s))
	}
	naive := float64(l.interCellOf(j, a))
	l.SetNaiveInterference(false)
	rebuilt := float64(l.interCellOf(j, a))
	if math.Abs(rebuilt-naive) > 1e-9*math.Max(1e-30, naive) {
		t.Fatalf("rebuilt aggregate %g != naive %g (stale rows?)", rebuilt, naive)
	}
	_ = before
}

// TestAggMemStatsAccounting pins AggMemStats against the ledger's own
// rows: a ledger that only moves holds nothing, ArenaBytes equals the
// built rows' slices plus the co-source bitsets and does not move when
// the Benefit memo is built, and SetNaiveInterference drops the rows
// but keeps the bitsets.
func TestAggMemStatsAccounting(t *testing.T) {
	in := genInstance(t, 12, 90, 3, 8)
	s := rng.New(77)
	l := NewLedger(in, NewAllocation(in.M()))
	fillRandom(in, l, s)
	if st := l.AggMemStats(); st != (AggMemStats{}) {
		t.Fatalf("move-only ledger reports %+v, want zero", st)
	}
	for probe := 0; probe < 20; probe++ {
		j := s.IntN(in.M())
		if vs := in.Top.Coverage[j]; len(vs) > 0 {
			l.interCellOf(j, Alloc{Server: vs[s.IntN(len(vs))], Channel: 0})
		}
	}
	var rows int
	var rowBytes, bitBytes int64
	for i := range l.agg {
		if d := l.agg[i]; d != nil {
			rows++
			rowBytes += int64(4*len(d.srcOff) + 8*len(d.vals))
		}
		if ss := l.srcSets[i]; ss != nil {
			bitBytes += int64(8 * len(ss.bits))
		}
	}
	st := l.AggMemStats()
	if rows == 0 || rows == in.N() {
		t.Fatalf("%d of %d rows built; want some but not all", rows, in.N())
	}
	if st.ResidentRows != rows || st.ArenaBytes != rowBytes+bitBytes {
		t.Fatalf("AggMemStats = %+v, want %d rows and %d+%d bytes", st, rows, rowBytes, bitBytes)
	}
	for j := 0; j < in.M(); j++ {
		if vs := in.Top.Coverage[j]; len(vs) > 0 && l.agg[vs[0]] != nil {
			_ = l.Benefit(j, Alloc{Server: vs[0], Channel: 0})
			break
		}
	}
	if after := l.AggMemStats(); after.MemoBytes == 0 || after.ArenaBytes != st.ArenaBytes {
		t.Fatalf("after the memo build: %+v, want ArenaBytes %d and a memo", after, st.ArenaBytes)
	}
	l.SetNaiveInterference(true)
	if st := l.AggMemStats(); st.ResidentRows != 0 || st.ArenaBytes != bitBytes {
		t.Fatalf("after SetNaiveInterference: %+v, want 0 rows and %d bitset bytes", st, bitBytes)
	}
}
