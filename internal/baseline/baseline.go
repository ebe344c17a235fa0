// Package baseline implements the four comparison approaches of the
// paper's evaluation (§4.1) behind a common interface:
//
//   - IDDE-IP — the IDDE model handed to a capped exact-style solver
//     (the paper uses IBM CPLEX capped at 100 s; we use the anytime
//     search of internal/solver, capped at an evaluation count — see
//     DESIGN.md §4).
//   - SAA — sample average approximation: each edge server chooses its
//     own delivery decisions from sampled demand, maximizing a local
//     storage utility (after Ning et al.).
//   - CDP — centralized data placement: a latency-greedy centralized
//     heuristic over the same communication model (after Liu et al.).
//   - DUP-G — a game-theoretical rate-maximizing user allocation with
//     per-server (non-collaborative) data placement (after Xia et al.).
//
// IDDE-G itself is also wrapped here so the experiment harness can treat
// all five approaches uniformly.
package baseline

import (
	"sort"

	"idde/internal/model"
)

// Approach formulates an IDDE strategy for an instance. Stochastic
// approaches draw all randomness from seed, so runs are reproducible;
// deterministic approaches ignore it.
type Approach interface {
	// Name is the label used in the paper's figures.
	Name() string
	// Solve produces a complete, feasible IDDE strategy.
	Solve(in *model.Instance, seed uint64) model.Strategy
}

// nearestAllocation assigns every user to its strongest-gain covering
// server, picking the currently least-loaded channel there. This is the
// interference-blind allocation used by CDP (and as the IDDE-IP search
// seed): it maximizes signal power but ignores congestion.
func nearestAllocation(in *model.Instance) model.Allocation {
	alloc := model.NewAllocation(in.M())
	load := make([][]int, in.N())
	for i := range load {
		load[i] = make([]int, in.Top.Servers[i].Channels)
	}
	for j := 0; j < in.M(); j++ {
		best, bestG := -1, -1.0
		for _, i := range in.Top.Coverage[j] {
			if g := in.GainAt(i, j); g > bestG {
				best, bestG = i, g
			}
		}
		if best < 0 {
			continue
		}
		ch := 0
		for x := 1; x < len(load[best]); x++ {
			if load[best][x] < load[best][ch] {
				ch = x
			}
		}
		load[best][ch]++
		alloc[j] = model.Alloc{Server: best, Channel: ch}
	}
	return alloc
}

// itemValue ranks item k for server i by the cloud-latency its local
// users would save per MB of storage — the shared currency of the
// per-server placement heuristics.
func itemValue(in *model.Instance, k int, localRequests int) float64 {
	if localRequests == 0 {
		return 0
	}
	return float64(localRequests) * float64(in.CloudLatency(k)) / float64(in.Wl.Items[k].Size)
}

// fillServerGreedy packs items into server i's reservation in
// descending value order, returning the chosen items. Items with
// non-positive value are skipped.
func fillServerGreedy(in *model.Instance, i int, value []float64) []int {
	order := make([]int, len(value))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		if value[order[a]] != value[order[b]] {
			return value[order[a]] > value[order[b]]
		}
		return order[a] < order[b]
	})
	var chosen []int
	remaining := in.Wl.Capacity[i]
	for _, k := range order {
		if value[k] <= 0 {
			break
		}
		if size := in.Wl.Items[k].Size; size <= remaining {
			chosen = append(chosen, k)
			remaining -= size
		}
	}
	return chosen
}
