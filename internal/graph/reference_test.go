package graph

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"idde/internal/rng"
	"idde/internal/units"
)

// heapRefSearch is the reference twin of search: the same Dijkstra loop
// on container/heap, a fresh cost slice and boxed heap items per call.
func heapRefSearch(g *Graph, src, dst int, parent []int) []units.SecondsPerMB {
	dist := make([]units.SecondsPerMB, g.n)
	for i := range dist {
		dist[i] = units.SecondsPerMB(math.Inf(1))
	}
	dist[src] = 0
	pq := &boxedHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(costItem)
		if item.d > dist[item.v] {
			continue
		}
		if item.v == dst {
			break
		}
		for _, e := range g.adj[item.v] {
			nd := item.d + e.cost
			if nd < dist[e.to] || (parent != nil && nd == dist[e.to] && parent[e.to] > item.v) {
				dist[e.to] = nd
				if parent != nil {
					parent[e.to] = item.v
				}
				heap.Push(pq, costItem{v: e.to, d: nd})
			}
		}
	}
	return dist
}

type boxedHeap []costItem

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(costItem)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// refShortestPath is ShortestPath over heapRefSearch.
func refShortestPath(g *Graph, src, dst int) ([]int, units.SecondsPerMB, bool) {
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = -1
	}
	dist := heapRefSearch(g, src, dst, parent)
	if math.IsInf(float64(dist[dst]), 1) {
		return nil, 0, false
	}
	var path []int
	for v := dst; v != -1; v = parent[v] {
		path = append(path, v)
	}
	slices.Reverse(path)
	return path, dist[dst], true
}

// checkMatchesHeapReference compares APSP bit for bit (+Inf included)
// and ShortestPath's path, cost and ok for every (src, dst) against the
// container/heap reference.
func checkMatchesHeapReference(t *testing.T, name string, g *Graph) {
	t.Helper()
	a := g.APSP()
	for src := 0; src < g.n; src++ {
		want := heapRefSearch(g, src, -1, nil)
		for dst := range want {
			if got := math.Float64bits(float64(a[src][dst])); got != math.Float64bits(float64(want[dst])) {
				t.Fatalf("%s: APSP[%d][%d] = %v, reference %v", name, src, dst, a[src][dst], want[dst])
			}
			path, cost, ok := g.ShortestPath(src, dst)
			rpath, rcost, rok := refShortestPath(g, src, dst)
			if ok != rok || math.Float64bits(float64(cost)) != math.Float64bits(float64(rcost)) || !slices.Equal(path, rpath) {
				t.Fatalf("%s: ShortestPath(%d, %d) = %v %v %v, reference %v %v %v", name, src, dst, path, cost, ok, rpath, rcost, rok)
			}
		}
	}
}

// referenceGraphs builds, from one seed, a RandomConnected topology and
// two graphs of random AddEdge calls that may be disconnected: one with
// link-speed costs and one with costs in {1, 2, 3}, whose many
// equal-cost paths exercise ShortestPath's lower-parent tie-break.
func referenceGraphs(seed uint64, n, edges int) map[string]*Graph {
	s := rng.New(seed)
	gs := map[string]*Graph{
		"connected": RandomConnected(n, edges, 2000, 6000, s.Split("connected")),
	}
	for _, kind := range []string{"speeds", "ties"} {
		es := s.Split(kind)
		g := New(n)
		for c := edges % (3 * n); c > 0; c-- {
			u, v := es.IntN(n), es.IntN(n)
			if u == v {
				continue
			}
			cost := units.PerMB(units.Rate(es.Uniform(2000, 6000)))
			if kind == "ties" {
				cost = units.SecondsPerMB(1 + es.IntN(3))
			}
			g.AddEdge(u, v, cost)
		}
		gs[kind] = g
	}
	return gs
}

func TestAPSPMatchesHeapReference(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		n := 2 + int(seed*5)%59
		for name, g := range referenceGraphs(seed, n, int(seed)*n/2+n) {
			checkMatchesHeapReference(t, name, g)
		}
	}
}

// FuzzAPSPMatchesHeapReference pins the typed heap against the
// container/heap loop it replaced on fuzzed connected and possibly
// disconnected graphs of 2–60 vertices.
func FuzzAPSPMatchesHeapReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(0))
	f.Add(uint64(2022), uint8(23), uint16(70))
	f.Add(uint64(7331), uint8(58), uint16(1790))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, edges uint16) {
		for name, g := range referenceGraphs(seed, 2+int(n)%59, int(edges)) {
			checkMatchesHeapReference(t, name, g)
		}
	})
}
