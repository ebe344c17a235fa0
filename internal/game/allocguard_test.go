//go:build !race

package game

import (
	"testing"

	"idde/internal/rng"
)

// TestRunRoundsZeroAllocs pins the engine's steady state at zero
// allocations per round: the same game run to 10 and to 500 committed
// updates must allocate the same number of times, under both policies
// and both scheduling modes. The race detector instruments
// allocations, so the file is excluded from -race runs.
func TestRunRoundsZeroAllocs(t *testing.T) {
	// Every player starts unallocated and must move at least once, so
	// 600 players commit more than 500 updates before converging.
	g := newLocalCongestion(600, 40, 3, rng.New(5))
	widest := 0
	for _, ps := range g.interested {
		widest = max(widest, len(ps))
	}
	g.aff = make([]int, 0, 2*widest)
	for _, policy := range []Policy{WinnerTakesAll, RoundRobin} {
		for _, full := range []bool{false, true} {
			allocs := func(updates int) float64 {
				opt := DefaultOptions()
				opt.Policy = policy
				opt.FullScan = full
				opt.MaxUpdates = updates
				got := 0
				n := testing.AllocsPerRun(3, func() {
					for j := range g.choice {
						g.choice[j] = -1
					}
					clear(g.load)
					got = Run[int](g, opt).Updates
				})
				if got != updates {
					t.Fatalf("%v full=%v: %d updates, want %d", policy, full, got, updates)
				}
				return n
			}
			if short, long := allocs(10), allocs(500); short != long {
				t.Fatalf("%v full=%v: %v allocs for 10 updates, %v for 500: a round allocates",
					policy, full, short, long)
			}
		}
	}
}
