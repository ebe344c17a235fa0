package serve

import "idde/internal/model"

// PopularSource returns the server the most requests fetch from under
// the strategy, excluding requests it serves as their own attachment
// point. It is the most disruptive single outage target for chaos
// drills: killing a server by attachment count mostly produces direct
// cloud routing for its own users, which never exercises a breaker.
// Requests resolve through the plan's Eq. 8 choice, as the data plane
// routes them.
func PopularSource(in *model.Instance, st model.Strategy) int {
	p := newPlan(0, in, st)
	counts := make([]int, in.N())
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			if src, viaEdge, _ := p.intent(j, k); viaEdge {
				if a := st.Alloc[j]; a.Allocated() && a.Server != src {
					counts[src]++
				}
			}
		}
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

// PopularLink returns the (source, attachment) pair carrying the most
// wired transfers under the strategy — the most disruptive single
// link-cut target. Returns {-1,-1} if no request crosses a wire.
func PopularLink(in *model.Instance, st model.Strategy) [2]int {
	p := newPlan(0, in, st)
	counts := map[[2]int]int{}
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			src, viaEdge, _ := p.intent(j, k)
			if !viaEdge {
				continue
			}
			a := st.Alloc[j]
			if !a.Allocated() || a.Server == src {
				continue
			}
			l := [2]int{src, a.Server}
			if l[0] > l[1] {
				l[0], l[1] = l[1], l[0]
			}
			counts[l]++
		}
	}
	best, bestN := [2]int{-1, -1}, 0
	for l, c := range counts {
		if c > bestN || (c == bestN && best[0] >= 0 && (l[0] < best[0] || (l[0] == best[0] && l[1] < best[1]))) {
			best, bestN = l, c
		}
	}
	return best
}
