package game

import (
	"runtime"
	"sync/atomic"
	"testing"

	"idde/internal/rng"
)

// inflight wraps a Localized adapter and records the largest number of
// Best calls that were ever running at once. Each call yields inside
// the count, so a second goroutine calling Best would overlap it even
// on one P.
type inflight struct {
	*localCongestion
	running, peak atomic.Int32
}

func (a *inflight) Best(j int) (int, float64, float64) {
	n := a.running.Add(1)
	for p := a.peak.Load(); n > p && !a.peak.CompareAndSwap(p, n); p = a.peak.Load() {
	}
	runtime.Gosched()
	d, b, cur := a.localCongestion.Best(j)
	a.running.Add(-1)
	return d, b, cur
}

// TestRunCallsAdapterFromOneGoroutine pins the Adapter contract: Run
// calls Best from one goroutine, one call at a time, under the default
// options and with more than one P available.
func TestRunCallsAdapterFromOneGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, policy := range []Policy{WinnerTakesAll, RoundRobin} {
		a := &inflight{localCongestion: newLocalCongestion(256, 24, 4, rng.New(11))}
		opt := DefaultOptions()
		opt.Policy = policy
		st := Run[int](a, opt)
		if st.Evaluations < a.NumPlayers() {
			t.Fatalf("%v: %d evaluations, want at least one per player", policy, st.Evaluations)
		}
		if p := a.peak.Load(); p != 1 {
			t.Fatalf("%v: %d Best calls ran at once, want 1", policy, p)
		}
	}
}
