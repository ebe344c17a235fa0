package graph

import (
	"idde/internal/rng"
	"idde/internal/units"
)

// RandomConnected generates a connected random topology with n vertices
// and approximately `edges` links, the construction behind experiment
// Set #4: "Given density and N ... density·N links are generated
// randomly to connect edge servers" (§4.3). Because density starts at
// 1.0 and a connected graph needs at least n−1 links, the generator
// first threads a random spanning tree (guaranteeing connectivity, as an
// edge *storage system* must be able to move data between any two
// servers) and then adds uniformly random extra links until the edge
// budget is met. Link costs are drawn as inverse speeds from
// [minSpeed,maxSpeed] MBps, matching the 2,000–6,000 MBps of §4.2.
//
// If edges < n−1 the spanning tree is still completed; if edges exceeds
// the complete graph size it is clamped.
func RandomConnected(n, edges int, minSpeed, maxSpeed units.Rate, s *rng.Stream) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	maxEdges := n * (n - 1) / 2
	if edges > maxEdges {
		edges = maxEdges
	}
	cost := func() units.SecondsPerMB {
		return units.PerMB(units.Rate(s.Uniform(float64(minSpeed), float64(maxSpeed))))
	}
	// Random spanning tree: connect each vertex (in random order) to a
	// uniformly random already-connected vertex. This yields trees with
	// realistic degree spread rather than a path or a star.
	order := s.Perm(n)
	for i := 1; i < n; i++ {
		u := order[i]
		v := order[s.IntN(i)]
		g.AddEdge(u, v, cost())
	}
	for g.M() < edges {
		u := s.IntN(n)
		v := s.IntN(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v, cost())
	}
	return g
}
