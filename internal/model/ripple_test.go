package model

import (
	"slices"
	"testing"
)

// TestLedgerRipple covers Ripple's contract on a generated instance
// whose users all start unallocated, so every neighbour that gets a
// Respond turn moves: the skip filter, the first-seen neighbourhood
// order, the stop after a sweep that moves nobody and the waves bound.
// The skip callback records every user a sweep visits.
func TestLedgerRipple(t *testing.T) {
	in := genInstance(t, 8, 60, 3, 11)
	var seeds []int
	for j := 0; j < in.M() && len(seeds) < 2; j++ {
		if len(in.Top.Coverage[j]) > 0 {
			seeds = append(seeds, j)
		}
	}
	// The neighbourhood in first-seen order over seeds, Coverage, Covered.
	var hood []int
	seen := map[int]bool{}
	for _, j := range seeds {
		for _, i := range in.Top.Coverage[j] {
			for _, u := range in.Top.Covered[i] {
				if !seen[u] {
					seen[u] = true
					hood = append(hood, u)
				}
			}
		}
	}
	if len(hood) < 4 || len(hood) == in.M() {
		t.Fatalf("neighbourhood of %v has %d of %d users; pick another instance", seeds, len(hood), in.M())
	}
	var visits []int
	recording := func(skip func(int) bool) func(int) bool {
		visits = nil
		return func(u int) bool {
			visits = append(visits, u)
			return skip(u)
		}
	}
	all := func(int) bool { return true }
	none := func(int) bool { return false }
	odd := func(u int) bool { return u%2 == 1 }

	// Skipping everyone moves nobody, so the first sweep is still and
	// the ripple stops there even with waves to spare.
	l := NewLedger(in, NewAllocation(in.M()))
	if moves := l.Ripple(seeds, 5, recording(all)); moves != 0 {
		t.Fatalf("ripple skipping everyone made %d moves", moves)
	}
	if !slices.Equal(visits, hood) {
		t.Fatalf("still ripple visited %v, want one sweep over %v", visits, hood)
	}
	if !slices.Equal(l.Alloc(), NewAllocation(in.M())) {
		t.Fatal("ripple skipping everyone changed the allocation")
	}

	// One wave with odd users skipped: exactly the even neighbours move,
	// once each, and nobody outside the neighbourhood moves.
	l = NewLedger(in, NewAllocation(in.M()))
	moves := l.Ripple(seeds, 1, recording(odd))
	if !slices.Equal(visits, hood) {
		t.Fatalf("one-wave ripple visited %v, want %v", visits, hood)
	}
	even := 0
	for u, a := range l.Alloc() {
		if want := seen[u] && !odd(u); a.Allocated() != want {
			t.Fatalf("user %d allocated=%v, want %v", u, a.Allocated(), want)
		}
		if seen[u] && !odd(u) {
			even++
		}
	}
	if moves != even {
		t.Fatalf("one-wave ripple made %d moves, want %d", moves, even)
	}

	// Unbounded waves run until a sweep moves nobody: the visits are
	// whole sweeps in neighbourhood order, at least one moving sweep and
	// the still one, and a second ripple from the result is still.
	l = NewLedger(in, NewAllocation(in.M()))
	moves = l.Ripple(seeds, 100, recording(none))
	sweeps := len(visits) / len(hood)
	if len(visits)%len(hood) != 0 || sweeps < 2 || sweeps == 100 || moves < len(hood) {
		t.Fatalf("ripple: %d visits over a %d-user neighbourhood, %d moves", len(visits), len(hood), moves)
	}
	for s := 0; s < sweeps; s++ {
		if !slices.Equal(visits[s*len(hood):(s+1)*len(hood)], hood) {
			t.Fatalf("sweep %d visited %v, want %v", s, visits[s*len(hood):(s+1)*len(hood)], hood)
		}
	}
	if again := l.Ripple(seeds, 100, recording(none)); again != 0 || len(visits) != len(hood) {
		t.Fatalf("ripple from an equilibrium made %d moves over %d visits", again, len(visits))
	}

	// The waves bound caps a ripple that is still moving.
	l = NewLedger(in, NewAllocation(in.M()))
	if bounded := l.Ripple(seeds, sweeps-1, recording(none)); len(visits) != (sweeps-1)*len(hood) || bounded == 0 {
		t.Fatalf("%d-wave ripple: %d visits, %d moves", sweeps-1, len(visits), bounded)
	}
}
