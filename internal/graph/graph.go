// Package graph implements the edge-server network substrate: a weighted
// undirected graph whose vertices are edge servers and whose edge weights
// are per-MB transfer costs (inverse link speeds). The paper's system
// model assumes adjacent edge servers communicate over high-speed links
// and that data moves along lowest-latency paths (Eq. 8); this package
// supplies the all-pairs shortest-path machinery behind L_{k,o,i} and
// the random `density·N`-link topologies of experiment Set #4.
package graph

import (
	"fmt"
	"math"
	"sort"

	"idde/internal/units"
)

// Edge is an undirected link between two vertices with a per-MB cost.
type Edge struct {
	U, V int
	Cost units.SecondsPerMB
}

// Graph is a weighted undirected graph over vertices 0..N-1. Parallel
// edges are merged, keeping the cheaper cost; self-loops are rejected.
type Graph struct {
	n   int
	adj [][]halfEdge
	m   int
}

type halfEdge struct {
	to   int
	cost units.SecondsPerMB
}

// New creates a graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]halfEdge, n)}
}

// N reports the number of vertices.
func (g *Graph) N() int { return g.n }

// M reports the number of (undirected) edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts an undirected edge. Adding an edge that already exists
// keeps the smaller cost. It panics on self-loops, out-of-range vertices
// or non-positive costs.
func (g *Graph) AddEdge(u, v int, cost units.SecondsPerMB) {
	if u == v {
		panic("graph: self-loop")
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex out of range: (%d,%d) with n=%d", u, v, g.n))
	}
	if cost <= 0 || math.IsInf(float64(cost), 0) || math.IsNaN(float64(cost)) {
		panic("graph: edge cost must be positive and finite")
	}
	for i := range g.adj[u] {
		if g.adj[u][i].to == v {
			if cost < g.adj[u][i].cost {
				g.adj[u][i].cost = cost
				for j := range g.adj[v] {
					if g.adj[v][j].to == u {
						g.adj[v][j].cost = cost
					}
				}
			}
			return
		}
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, cost: cost})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, cost: cost})
	g.m++
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, e := range g.adj[u] {
		if e.to == v {
			return true
		}
	}
	return false
}

// Degree reports the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Edges returns all edges with U < V, sorted for determinism.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if u < e.to {
				out = append(out, Edge{U: u, V: e.to, Cost: e.cost})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Connected reports whether the graph is connected (true for n<=1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, e.to)
			}
		}
	}
	return count == g.n
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	for u := range g.adj {
		c.adj[u] = append([]halfEdge(nil), g.adj[u]...)
	}
	return c
}
