package graph

import (
	"container/heap"
	"math"

	"idde/internal/units"
)

// Dijkstra computes single-source shortest path costs from src.
// Unreachable vertices get +Inf. Costs are per-MB transfer costs, so the
// result, multiplied by a data size, is the lowest delivery latency from
// src (Eq. 8's L_{k,o,i} with d_k of that size).
func (g *Graph) Dijkstra(src int) []units.SecondsPerMB { return g.search(src, -1, nil) }

// search is the one Dijkstra loop behind Dijkstra, APSP and
// ShortestPath. It stops once dst is settled (dst < 0 settles every
// vertex). When parent is non-nil it records each reached vertex's
// predecessor on a cheapest path, breaking cost ties toward the lower
// parent index; without it, ties cost nothing.
func (g *Graph) search(src, dst int, parent []int) []units.SecondsPerMB {
	dist := make([]units.SecondsPerMB, g.n)
	for i := range dist {
		dist[i] = units.SecondsPerMB(math.Inf(1))
	}
	dist[src] = 0
	pq := &costHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(costItem)
		if item.d > dist[item.v] {
			continue // stale entry
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

// APSP computes all-pairs shortest path per-MB costs by running Dijkstra
// from every vertex (O(N·(M+N)logN), fine at the paper's scales and
// asymptotically better than Floyd–Warshall on the sparse `density·N`
// edge topologies). The result is symmetric for undirected graphs.
func (g *Graph) APSP() [][]units.SecondsPerMB {
	out := make([][]units.SecondsPerMB, g.n)
	for v := 0; v < g.n; v++ {
		out[v] = g.Dijkstra(v)
	}
	return out
}

// ShortestPath returns the vertex sequence of a cheapest path from src
// to dst (inclusive of both endpoints) and its total cost. It reports
// ok=false when dst is unreachable. Ties break toward lower parent
// indices, so the result is deterministic.
func (g *Graph) ShortestPath(src, dst int) (path []int, cost units.SecondsPerMB, ok bool) {
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = -1
	}
	dist := g.search(src, dst, parent)
	if math.IsInf(float64(dist[dst]), 1) {
		return nil, 0, false
	}
	for v := dst; v != -1; v = parent[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[dst], true
}

type costItem struct {
	v int
	d units.SecondsPerMB
}

type costHeap []costItem

func (h costHeap) Len() int            { return len(h) }
func (h costHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h costHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x interface{}) { *h = append(*h, x.(costItem)) }
func (h *costHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
