package model

import (
	"math"
	"testing"

	"idde/internal/rng"
)

// memoValid reports whether l's memo holds a current value for
// Benefit(j, a).
func memoValid(l *Ledger, j int, a Alloc) bool {
	m := l.memo
	if m == nil || !a.Allocated() {
		return false
	}
	for k, i := range l.in.Top.Coverage[j] {
		if i == a.Server {
			w, bit := m.bit(j, k, a.Channel)
			return *w&bit != 0
		}
	}
	return false
}

// decisions lists user j's in-coverage decision set.
func decisions(in *Instance, j int) []Alloc {
	var as []Alloc
	for _, i := range in.Top.Coverage[j] {
		for x := 0; x < in.Top.Servers[i].Channels; x++ {
			as = append(as, Alloc{Server: i, Channel: x})
		}
	}
	return as
}

// TestMoveInvalidatesExactlyTouchedChannels pins the memo's staleness
// tracking: with every in-coverage entry cached, a move from (o, x) to
// (o′, x′) must invalidate exactly channel x of every user o covers,
// channel x′ of every user o′ covers and every channel of the mover.
// Under-invalidation would serve stale values; over-invalidation is
// still correct but silently loses the memo's gain, so both directions
// are checked.
func TestMoveInvalidatesExactlyTouchedChannels(t *testing.T) {
	in := genInstance(t, 20, 120, 3, 17)
	s := rng.New(41)
	l := NewLedger(in, NewAllocation(in.M()))
	fillRandom(in, l, s)
	sweepAll := func() {
		for j := 0; j < in.M(); j++ {
			for _, a := range decisions(in, j) {
				_ = l.Benefit(j, a)
			}
		}
	}
	covers := func(o, u int) bool {
		if o < 0 {
			return false
		}
		for _, i := range in.Top.Coverage[u] {
			if i == o {
				return true
			}
		}
		return false
	}
	kinds := map[string]int{}
	for step := 0; step < 60; step++ {
		sweepAll()
		mover := s.IntN(in.M())
		for u := range in.M() {
			if !l.Current(u).Allocated() && s.Bool(0.3) {
				mover = u // exercise moves out of Unallocated too
				break
			}
		}
		from := l.Current(mover)
		to := randomMove(in, mover, s)
		if i := offCoverage(in, mover, s); i >= 0 && s.Bool(0.15) {
			to = Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
		}
		if from == to {
			continue
		}
		switch {
		case !from.Allocated():
			kinds["from-unallocated"]++
		case !to.Allocated():
			kinds["to-unallocated"]++
		case from.Server == to.Server:
			kinds["same-server"]++
		default:
			kinds["cross-server"]++
		}
		l.Move(mover, to)
		for u := 0; u < in.M(); u++ {
			for _, a := range decisions(in, u) {
				stale := u == mover ||
					(covers(from.Server, u) && a.Channel == from.Channel) ||
					(covers(to.Server, u) && a.Channel == to.Channel)
				if got := memoValid(l, u, a); got == stale {
					t.Fatalf("step %d: move of %d %v→%v left Benefit(%d,%v) valid=%v, want %v",
						step, mover, from, to, u, a, got, !stale)
				}
			}
		}
	}
	for _, k := range []string{"from-unallocated", "to-unallocated", "same-server", "cross-server"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s move exercised (%v)", k, kinds)
		}
	}
}

// TestBenefitMemoMatchesTwin is the memo differential: along a random
// walk of moves, every in-coverage Benefit on a ledger whose memo stays
// warm — a mix of hits and misses — must equal the same probe on a twin
// ledger that made the same moves but evaluates with an empty memo, bit
// for bit. (A ledger built from the profile alone is not a valid twin:
// its occupant lists, and so its folds, are in a different order.)
func TestBenefitMemoMatchesTwin(t *testing.T) {
	for _, seed := range []uint64{5, 2022} {
		in := genInstance(t, 16, 100, 3, seed)
		l := NewLedger(in, NewAllocation(in.M()))
		twin := NewLedger(in, NewAllocation(in.M()))
		fillRandom(in, l, rng.New(seed*13))
		fillRandom(in, twin, rng.New(seed*13))
		s := rng.New(seed * 17)
		var hits, probes int
		for step := 0; step < 25; step++ {
			twin.memo = nil
			for j := 0; j < in.M(); j++ {
				for _, a := range decisions(in, j) {
					if memoValid(l, j, a) {
						hits++
					}
					probes++
					got, want := l.Benefit(j, a), twin.Benefit(j, a)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d: Benefit(%d,%v) = %v, memo-less twin %v", seed, step, j, a, got, want)
					}
				}
			}
			for b := 0; b < 4; b++ {
				j := s.IntN(in.M())
				a := randomMove(in, j, s)
				l.Move(j, a)
				twin.Move(j, a)
			}
		}
		if hits == 0 || hits == probes {
			t.Fatalf("seed %d: %d of %d probes were memo hits; want a mix", seed, hits, probes)
		}
	}
}

// TestMemoBytesAccounting pins the memo's memory report: nothing before
// the first Benefit, then the value, mask and hint slices exactly, all
// kept out of ArenaBytes. Rate-only ledgers never build the memo.
func TestMemoBytesAccounting(t *testing.T) {
	in := genInstance(t, 12, 90, 3, 7)
	l := NewLedger(in, NewAllocation(in.M()))
	fillRandom(in, l, rng.New(3))
	_ = l.AvgRate()
	l.WarmAggregates() // so the probe below faults no row in
	before := l.AggMemStats()
	if before.MemoBytes != 0 {
		t.Fatalf("MemoBytes = %d before any Benefit, want 0", before.MemoBytes)
	}
	j := 0
	for len(in.Top.Coverage[j]) == 0 {
		j++
	}
	_ = l.Benefit(j, Alloc{Server: in.Top.Coverage[j][0], Channel: 0})
	after := l.AggMemStats()
	m := l.memo
	if want := int64(8*len(m.val) + 8*len(m.valid) + 4*len(m.hint)); after.MemoBytes != want || want == 0 {
		t.Fatalf("MemoBytes = %d, want %d", after.MemoBytes, want)
	}
	if after.ArenaBytes != before.ArenaBytes {
		t.Fatalf("ArenaBytes moved %d → %d with the memo; the memo must be reported apart", before.ArenaBytes, after.ArenaBytes)
	}
}
