package graph

import (
	"math"

	"idde/internal/units"
)

// search is the one Dijkstra loop behind APSP and ShortestPath. It
// fills dist with the costs from src and stops once dst is settled
// (dst < 0 settles every vertex). When parent is non-nil it records
// each reached vertex's predecessor on a cheapest path, breaking cost
// ties toward the lower parent index; without it, ties cost nothing.
// pq is scratch space, emptied on entry, so callers running many
// searches reuse one heap.
func (g *Graph) search(src, dst int, dist []units.SecondsPerMB, parent []int, pq *costHeap) {
	for i := range dist {
		dist[i] = units.SecondsPerMB(math.Inf(1))
	}
	dist[src] = 0
	*pq = append((*pq)[:0], costItem{v: src, d: 0})
	for len(*pq) > 0 {
		item := pq.pop()
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
				pq.push(costItem{v: e.to, d: nd})
			}
		}
	}
}

// APSP computes all-pairs shortest path per-MB costs by running Dijkstra
// from every vertex (O(N·(M+N)logN), fine at the paper's scales and
// asymptotically better than Floyd–Warshall on the sparse `density·N`
// edge topologies). Row v, multiplied by a data size, is the lowest
// delivery latency from v (Eq. 8's L_{k,o,i} with d_k of that size);
// unreachable vertices get +Inf. The rows share one N×N backing array
// and every source reuses one heap. The result is symmetric for
// undirected graphs.
func (g *Graph) APSP() [][]units.SecondsPerMB {
	n := g.n
	out := make([][]units.SecondsPerMB, n)
	flat := make([]units.SecondsPerMB, n*n)
	pq := make(costHeap, 0, n)
	for v := range out {
		out[v] = flat[v*n : (v+1)*n : (v+1)*n]
		g.search(v, -1, out[v], nil, &pq)
	}
	return out
}

// ShortestPath returns the vertex sequence of a cheapest path from src
// to dst (inclusive of both endpoints) and its total cost. It reports
// ok=false when dst is unreachable. Ties break toward lower parent
// indices, so the result is deterministic.
func (g *Graph) ShortestPath(src, dst int) (path []int, cost units.SecondsPerMB, ok bool) {
	dist := make([]units.SecondsPerMB, g.n)
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = -1
	}
	var pq costHeap
	g.search(src, dst, dist, parent, &pq)
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

// costHeap is a binary min-heap on d. push and pop make the same
// comparisons as container/heap's Push and Pop and leave every entry
// where they would, so entries pop in the same order, without boxing
// each item in an interface.
type costHeap []costItem

func (h *costHeap) push(it costItem) {
	q := append(*h, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.d < q[i].d) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
	*h = q
}

func (h *costHeap) pop() costItem {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].d < q[j].d {
			j = j2
		}
		if !(q[j].d < last.d) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = last
	*h = q[:n]
	return top
}
