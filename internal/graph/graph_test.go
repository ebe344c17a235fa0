package graph

import (
	"math"
	"slices"
	"testing"

	"idde/internal/rng"
	"idde/internal/units"
)

// Dijkstra computes single-source shortest path costs from src with
// the production search; unreachable vertices get +Inf.
func (g *Graph) Dijkstra(src int) []units.SecondsPerMB {
	dist := make([]units.SecondsPerMB, g.n)
	g.search(src, -1, dist, nil, new(costHeap))
	return dist
}

func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("degrees wrong")
	}
}

func TestAddEdgeMergesParallel(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 1, 3) // cheaper: should replace
	g.AddEdge(1, 0, 9) // more expensive: ignored
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	d := g.Dijkstra(0)
	if d[1] != 3 {
		t.Errorf("merged cost = %v, want 3", d[1])
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"self-loop", func() { New(3).AddEdge(1, 1, 1) }},
		{"out-of-range", func() { New(3).AddEdge(0, 3, 1) }},
		{"zero-cost", func() { New(3).AddEdge(0, 1, 0) }},
		{"negative-cost", func() { New(3).AddEdge(0, 1, -1) }},
		{"inf-cost", func() { New(3).AddEdge(0, 1, units.SecondsPerMB(math.Inf(1))) }},
		{"negative-n", func() { New(-1) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 0, 1)
	g.AddEdge(2, 1, 1)
	g.AddEdge(1, 0, 1)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges len = %d", len(es))
	}
	for i, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %d not canonical: %+v", i, e)
		}
		if i > 0 && (es[i-1].U > e.U || (es[i-1].U == e.U && es[i-1].V > e.V)) {
			t.Errorf("edges not sorted at %d", i)
		}
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Error("trivial graphs should be connected")
	}
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if g.Connected() {
		t.Error("two components reported connected")
	}
	g.AddEdge(1, 2, 1)
	if !g.Connected() {
		t.Error("connected graph reported disconnected")
	}
}

func TestDijkstraLine(t *testing.T) {
	g := line(5)
	d := g.Dijkstra(0)
	for i, want := range []float64{0, 1, 2, 3, 4} {
		if float64(d[i]) != want {
			t.Errorf("d[%d] = %v, want %v", i, d[i], want)
		}
	}
}

func TestDijkstraPrefersCheapPath(t *testing.T) {
	// 0-1-2 with costs 1+1 beats the direct 0-2 edge of cost 5.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	if d := g.Dijkstra(0); d[2] != 2 {
		t.Errorf("d[2] = %v, want 2", d[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	d := g.Dijkstra(0)
	if !math.IsInf(float64(d[2]), 1) {
		t.Errorf("unreachable vertex cost = %v", d[2])
	}
}

// floydWarshall computes g's all-pairs costs with the classic O(N³)
// dynamic program: the differential-testing oracle for APSP.
func floydWarshall(g *Graph) [][]units.SecondsPerMB {
	inf := units.SecondsPerMB(math.Inf(1))
	d := make([][]units.SecondsPerMB, g.n)
	for i := range d {
		d[i] = make([]units.SecondsPerMB, g.n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if e.cost < d[u][e.to] {
				d[u][e.to] = e.cost
			}
		}
	}
	for k := 0; k < g.n; k++ {
		for i := 0; i < g.n; i++ {
			dik := d[i][k]
			if math.IsInf(float64(dik), 1) {
				continue
			}
			for j := 0; j < g.n; j++ {
				if via := dik + d[k][j]; via < d[i][j] {
					d[i][j] = via
				}
			}
		}
	}
	return d
}

func TestAPSPMatchesFloydWarshall(t *testing.T) {
	s := rng.New(101)
	for trial := 0; trial < 20; trial++ {
		n := 2 + s.IntN(30)
		edges := n - 1 + s.IntN(2*n)
		g := RandomConnected(n, edges, 2000, 6000, s.SplitN("g", trial))
		a := g.APSP()
		f := floydWarshall(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ai, fi := float64(a[i][j]), float64(f[i][j])
				if math.IsInf(ai, 1) != math.IsInf(fi, 1) {
					t.Fatalf("trial %d: reachability mismatch at (%d,%d)", trial, i, j)
				}
				if !math.IsInf(ai, 1) && math.Abs(ai-fi) > 1e-12*math.Max(1, fi) {
					t.Fatalf("trial %d: APSP %v != FW %v at (%d,%d)", trial, ai, fi, i, j)
				}
			}
		}
	}
}

func TestAPSPSymmetricAndTriangle(t *testing.T) {
	s := rng.New(102)
	g := RandomConnected(25, 40, 2000, 6000, s)
	d := g.APSP()
	for i := 0; i < 25; i++ {
		if d[i][i] != 0 {
			t.Errorf("d[%d][%d] = %v", i, i, d[i][i])
		}
		for j := 0; j < 25; j++ {
			// Summation order differs per direction, so allow ulp-scale slack.
			if math.Abs(float64(d[i][j])-float64(d[j][i])) > 1e-12*math.Max(1, float64(d[i][j])) {
				t.Errorf("asymmetric at (%d,%d): %v vs %v", i, j, d[i][j], d[j][i])
			}
			for k := 0; k < 25; k++ {
				if float64(d[i][j]) > float64(d[i][k])+float64(d[k][j])+1e-15 {
					t.Fatalf("triangle violated: d[%d][%d] > d via %d", i, j, k)
				}
			}
		}
	}
}

func TestShortestPathKnown(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 1)
	path, cost, ok := g.ShortestPath(0, 3)
	if !ok || cost != 3 {
		t.Fatalf("cost = %v ok=%v", cost, ok)
	}
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Self path.
	if p, c, ok := g.ShortestPath(2, 2); !ok || c != 0 || len(p) != 1 || p[0] != 2 {
		t.Errorf("self path = %v cost %v", p, c)
	}
}

// TestShortestPathTieBreaksToLowerParent builds an equal-cost diamond
// whose higher-index middle vertex is settled first, so only the
// lower-parent tie-break turns the path through vertex 1.
func TestShortestPathTieBreaksToLowerParent(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 3, 1)
	path, cost, ok := g.ShortestPath(0, 3)
	if !ok || cost != 2 || !slices.Equal(path, []int{0, 1, 3}) {
		t.Fatalf("path %v cost %v ok %v, want [0 1 3] cost 2", path, cost, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if _, _, ok := g.ShortestPath(0, 2); ok {
		t.Error("unreachable path reported ok")
	}
}

func TestShortestPathMatchesDijkstraCost(t *testing.T) {
	s := rng.New(404)
	g := RandomConnected(25, 50, 2000, 6000, s)
	d := g.Dijkstra(3)
	for v := 0; v < 25; v++ {
		path, cost, ok := g.ShortestPath(3, v)
		if !ok {
			t.Fatalf("no path to %d", v)
		}
		if cost != d[v] {
			t.Fatalf("cost to %d: %v vs Dijkstra %v", v, cost, d[v])
		}
		// Path must be a real walk whose edge costs sum to the total.
		var sum units.SecondsPerMB
		for i := 0; i+1 < len(path); i++ {
			if !g.HasEdge(path[i], path[i+1]) {
				t.Fatalf("path step (%d,%d) not an edge", path[i], path[i+1])
			}
			for _, e := range g.adj[path[i]] {
				if e.to == path[i+1] {
					sum += e.cost
				}
			}
		}
		if math.Abs(float64(sum-cost)) > 1e-12*math.Max(1, float64(cost)) {
			t.Fatalf("path edge sum %v != cost %v", sum, cost)
		}
	}
}

func TestClone(t *testing.T) {
	g := line(4)
	c := g.Clone()
	c.AddEdge(0, 3, 1)
	if g.HasEdge(0, 3) {
		t.Error("Clone shares storage with original")
	}
	if c.M() != g.M()+1 {
		t.Error("clone edge count wrong")
	}
}
