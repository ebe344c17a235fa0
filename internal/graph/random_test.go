package graph

import (
	"testing"
	"testing/quick"

	"idde/internal/rng"
)

func TestRandomConnectedProperties(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := 2 + int(nRaw)%60
		edges := n - 1 + int(extraRaw)%(2*n)
		g := RandomConnected(n, edges, 2000, 6000, rng.New(seed))
		if !g.Connected() {
			return false
		}
		maxEdges := n * (n - 1) / 2
		want := edges
		if want > maxEdges {
			want = maxEdges
		}
		if g.M() != want {
			return false
		}
		// All edge costs must correspond to speeds in [2000,6000] MBps.
		for _, e := range g.Edges() {
			speed := 1 / float64(e.Cost)
			if speed < 2000-1e-6 || speed > 6000+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(30, 45, 2000, 6000, rng.New(5))
	b := RandomConnected(30, 45, 2000, 6000, rng.New(5))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestRandomConnectedSmall(t *testing.T) {
	if g := RandomConnected(0, 5, 2000, 6000, rng.New(1)); g.N() != 0 {
		t.Error("n=0 wrong")
	}
	if g := RandomConnected(1, 5, 2000, 6000, rng.New(1)); g.N() != 1 || g.M() != 0 {
		t.Error("n=1 wrong")
	}
	// edges below n-1 still yields a spanning tree.
	g := RandomConnected(10, 3, 2000, 6000, rng.New(1))
	if !g.Connected() || g.M() != 9 {
		t.Errorf("under-budget graph: connected=%v M=%d", g.Connected(), g.M())
	}
}

func TestRandomConnectedClampsToCompleteGraph(t *testing.T) {
	g := RandomConnected(5, 100, 2000, 6000, rng.New(2))
	if g.M() != 10 {
		t.Errorf("M = %d, want complete graph 10", g.M())
	}
}
