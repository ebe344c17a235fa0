package model

import "idde/internal/units"

// DeliveryOracle is the Phase 2 marginal-gain oracle contract shared by
// the optimized cohort-aggregated state and the per-request reference
// walk (LatencyState). Both expose Eq. 17 marginal gains and commits
// over a growing delivery profile for a fixed allocation; they differ
// only in evaluation cost.
type DeliveryOracle interface {
	// GainOf reports the total latency reduction of adding replica
	// σ_{i,k}=1 (the numerator of Eq. 17).
	GainOf(i, k int) units.Seconds
	// Commit applies replica σ_{i,k}=1 and returns the realized gain.
	Commit(i, k int) units.Seconds
	// Requests reports the total request count (denominator of Eq. 9).
	Requests() int
	// Total reports Σ_j Σ_k ζ_{j,k}·L_{j,k} (numerator of Eq. 9).
	Total() units.Seconds
	// Avg reports Eq. (9) under the committed profile.
	Avg() units.Seconds
}

var (
	_ DeliveryOracle = (*LatencyState)(nil)
	_ DeliveryOracle = (*CohortLatencyState)(nil)
)

// Replay commits every replica placed in d on o, in ascending (server,
// item) order — a canonical order independent of how d was built.
func Replay(o DeliveryOracle, d *Delivery) {
	for i := 0; i < d.n; i++ {
		for k := 0; k < d.k; k++ {
			if d.Placed(i, k) {
				o.Commit(i, k)
			}
		}
	}
}

// CohortLatencyState is the optimized Phase 2 latency oracle: the same
// incremental Eq. 8/Eq. 17 semantics as LatencyState, evaluated in
// O(cohorts-of-item) per GainOf instead of O(requests-of-item).
//
// Requests are grouped by (item, serving server) into cohorts. Eq. 8
// factorizes as EdgeLatency(k,o,a) = PathCost[o][a]·size_k, so every
// request of a cohort sees the same latency from any replica. Cohorts
// start uniform (all requests at the item's cloud latency) and a Commit
// is a pointwise min against one threshold per cohort, so a cohort is
// always n copies of one current value cur: a Commit updates one float
// per improved cohort. Unallocated users' requests are pinned at cloud
// latency (the edge option of Eq. 8 is +Inf for them) and never enter a
// cohort; they only count in Requests/Total.
//
// A cohort's sum is the left-to-right fold of n copies of cur. Commit
// defers that fold to the next evaluation that needs it, so a run of
// commits touching the same cohort pays it at most once.
//
// Gains are bit-identical to LatencyState's: the reference walk groups
// its per-request fold by serving server in the same ascending order and
// applies the same sum−count·t arithmetic (see the LatencyState type
// comment), so even mathematically tied candidates resolve the same way
// on both paths. The differential suites and FuzzCohortMatchesLatencyState
// pin this down.
//
// GainOf writes a cohort sum when it materializes a deferred fold, so a
// CohortLatencyState is not safe for concurrent use.
type CohortLatencyState struct {
	in *Instance
	// cohorts[k] lists item k's cohorts ascending by serving server, as
	// views into one shared backing array.
	cohorts  [][]cohort
	requests int
	total    float64
}

// cohort is one (item, serving server) cohort: n requests, all at the
// current latency cur. sum caches the left-to-right fold of n copies of
// cur; sumOK is cleared by a deferred collapse.
type cohort struct {
	server int32
	n      int32
	sumOK  bool
	cur    float64
	sum    float64
}

// foldUniform computes the left-to-right fold v+v+…+v over n terms —
// bitwise the per-request fold LatencyState performs over a uniform
// group, which n·v (one rounding instead of n−1) is not.
func foldUniform(v float64, n int) float64 {
	var s float64
	for ; n > 0; n-- {
		s += v
	}
	return s
}

// cohortCounts tallies requests per (item, serving server) for
// allocated users into one flat K·N array, accumulating the
// Requests/Total denominators in the same j-order fold as LatencyState
// so the totals agree bitwise.
func cohortCounts(in *Instance, alloc Allocation, requests *int, total *float64) []int32 {
	counts := make([]int32, in.K()*in.N())
	n := in.N()
	for j, items := range in.Wl.Requests {
		a := alloc[j]
		for _, k := range items {
			*requests++
			*total += float64(in.CloudLatency(k))
			if !a.Allocated() {
				continue
			}
			counts[k*n+a.Server]++
		}
	}
	return counts
}

// NewCohortLatencyState builds the cohort oracle for the given
// allocation and replays the replicas already placed in d (nil for an
// empty profile) through Replay.
func NewCohortLatencyState(in *Instance, alloc Allocation, d *Delivery) *CohortLatencyState {
	ls := &CohortLatencyState{
		in:      in,
		cohorts: make([][]cohort, in.K()),
	}
	counts := cohortCounts(in, alloc, &ls.requests, &ls.total)
	n := in.N()
	totalCohorts := 0
	for _, cnt := range counts {
		if cnt > 0 {
			totalCohorts++
		}
	}
	buf := make([]cohort, totalCohorts)
	co := 0
	for k := 0; k < in.K(); k++ {
		row := counts[k*n : (k+1)*n]
		nc := 0
		for _, cnt := range row {
			if cnt > 0 {
				nc++
			}
		}
		if nc == 0 {
			continue
		}
		cloud := float64(in.CloudLatency(k))
		cs := buf[co : co : co+nc]
		co += nc
		for a, cnt := range row {
			if cnt == 0 {
				continue
			}
			cs = append(cs, cohort{
				server: int32(a), n: cnt, sumOK: true,
				cur: cloud, sum: foldUniform(cloud, int(cnt)),
			})
		}
		ls.cohorts[k] = cs
	}
	if d != nil {
		Replay(ls, d)
	}
	return ls
}

// Requests reports the total request count (the denominator of Eq. 9).
func (ls *CohortLatencyState) Requests() int { return ls.requests }

// Total reports Σ_j Σ_k ζ_{j,k}·L_{j,k}, the numerator of Eq. 9.
func (ls *CohortLatencyState) Total() units.Seconds { return units.Seconds(ls.total) }

// Avg reports Eq. (9), the average data delivery latency.
func (ls *CohortLatencyState) Avg() units.Seconds {
	if ls.requests == 0 {
		return 0
	}
	return units.Seconds(ls.total / float64(ls.requests))
}

// GainOf reports the total latency reduction of adding replica
// σ_{i,k}=1: per cohort, the threshold t = PathCost[i][a]·size_k is one
// multiplication against the hoisted path-cost row, and an improved
// cohort contributes sum − n·t. Deferred folds of item k's cohorts are
// materialized on the way (at most one per cohort per run of commits).
func (ls *CohortLatencyState) GainOf(i, k int) units.Seconds {
	row := ls.in.Top.PathCost[i]
	size := float64(ls.in.Wl.Items[k].Size)
	var gain float64
	cs := ls.cohorts[k]
	for ci := range cs {
		c := &cs[ci]
		t := float64(row[c.server]) * size
		if t >= c.cur {
			continue // nothing improves: the cohort is uniform at cur
		}
		if !c.sumOK {
			c.sum = foldUniform(c.cur, int(c.n))
			c.sumOK = true
		}
		gain += c.sum - float64(c.n)*t
	}
	return units.Seconds(gain)
}

// Commit applies replica σ_{i,k}=1: each improved cohort collapses to
// the threshold value in O(1), deferring its fold to the next
// evaluation that needs it. In the CELF flow a Commit immediately
// follows a fresh GainOf of the same candidate, so the sums it reads
// are already materialized and the Commit itself performs no folds.
func (ls *CohortLatencyState) Commit(i, k int) units.Seconds {
	row := ls.in.Top.PathCost[i]
	size := float64(ls.in.Wl.Items[k].Size)
	var gain float64
	cs := ls.cohorts[k]
	for ci := range cs {
		c := &cs[ci]
		t := float64(row[c.server]) * size
		if t >= c.cur {
			continue
		}
		if !c.sumOK {
			c.sum = foldUniform(c.cur, int(c.n))
		}
		gain += c.sum - float64(c.n)*t
		c.cur = t
		c.sumOK = false
	}
	ls.total -= gain
	return units.Seconds(gain)
}
