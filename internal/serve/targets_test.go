package serve

import (
	"testing"

	"idde/internal/model"
)

// scanCounts tallies, by literal In.BestSource scan per request, the
// wired transfers PopularSource and PopularLink count: per source, and
// per unordered (source, attachment) pair.
func scanCounts(in *model.Instance, st model.Strategy) ([]int, map[[2]int]int) {
	bySrc, byLink := make([]int, in.N()), map[[2]int]int{}
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			src, viaEdge := in.BestSource(st.Alloc, st.Delivery, j, k, st.Mode, nil)
			if a := st.Alloc[j]; viaEdge && a.Allocated() && a.Server != src {
				bySrc[src]++
				l := [2]int{min(src, a.Server), max(src, a.Server)}
				byLink[l]++
			}
		}
	}
	return bySrc, byLink
}

// TestPopularTargetsMatchScan checks that PopularSource and PopularLink,
// which route through a plan's nearest-replica table, pick the targets
// the per-request scan picks: the lowest-index most-fetched-from server,
// and the most-loaded link with ties to the lexicographically smallest
// pair. It covers healthy and re-planned Collaborative strategies and a
// coverage-local one, which scans.
func TestPopularTargetsMatchScan(t *testing.T) {
	type tc struct {
		name string
		in   *model.Instance
		st   model.Strategy
	}
	var cases []tc
	for _, sz := range [][2]int{{10, 60}, {12, 80}} {
		in := genInstance(t, sz[0], sz[1], 4, 11)
		st := solved(t, in)
		replanned, _ := replannedPlan(t, in, st)
		local := st
		local.Mode = model.CoverageLocal
		cases = append(cases,
			tc{"healthy", in, st},
			tc{"replanned", replanned.In, replanned.Strategy},
			tc{"coverage-local", in, local})
	}
	for _, c := range cases {
		bySrc, byLink := scanCounts(c.in, c.st)
		wantSrc := 0
		for i, n := range bySrc {
			if n > bySrc[wantSrc] {
				wantSrc = i
			}
		}
		wantLink, wantN := [2]int{-1, -1}, 0
		for l, n := range byLink {
			if n > wantN || (n == wantN && (l[0] < wantLink[0] || (l[0] == wantLink[0] && l[1] < wantLink[1]))) {
				wantLink, wantN = l, n
			}
		}
		if got := PopularSource(c.in, c.st); got != wantSrc {
			t.Errorf("%s N=%d: PopularSource = %d, scan gives %d", c.name, c.in.N(), got, wantSrc)
		}
		if got := PopularLink(c.in, c.st); got != wantLink {
			t.Errorf("%s N=%d: PopularLink = %v, scan gives %v", c.name, c.in.N(), got, wantLink)
		}
	}
}
