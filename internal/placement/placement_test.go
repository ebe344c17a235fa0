package placement

import (
	"math"
	"reflect"
	"testing"

	"idde/internal/rng"
)

// coverOracle is a miniature facility-location-style problem mirroring
// the IDDE delivery structure: req[r] has a current latency cur[r] and
// requests item item[r]; committing candidate (i,k) moves every request
// of item k down to via[i][r] if that is lower. Budgets are per server.
// It recomputes state from scratch on Commit/Uncommit, so
// exhaustiveBest can roll its commits back.
type coverOracle struct {
	items  []int       // item requested by each request
	cloud  []float64   // initial latency per request
	via    [][]float64 // via[server][request]
	cost   []float64   // per item
	budget []float64   // per server
	placed map[Candidate]bool
}

func (o *coverOracle) cur(r int) float64 {
	best := o.cloud[r]
	for c := range o.placed {
		if c.Item == o.items[r] && o.via[c.Server][r] < best {
			best = o.via[c.Server][r]
		}
	}
	return best
}

func (o *coverOracle) used(i int) float64 {
	u := 0.0
	for c := range o.placed {
		if c.Server == i {
			u += o.cost[c.Item]
		}
	}
	return u
}

func (o *coverOracle) Gain(c Candidate) float64 {
	if o.placed[c] {
		return 0
	}
	g := 0.0
	for r := range o.items {
		if o.items[r] != c.Item {
			continue
		}
		if v := o.via[c.Server][r]; v < o.cur(r) {
			g += o.cur(r) - v
		}
	}
	return g
}

func (o *coverOracle) Cost(c Candidate) float64 { return o.cost[c.Item] }

func (o *coverOracle) Feasible(c Candidate) bool {
	return !o.placed[c] && o.used(c.Server)+o.cost[c.Item] <= o.budget[c.Server]+1e-12
}

func (o *coverOracle) Commit(c Candidate) float64 {
	g := o.Gain(c)
	o.placed[c] = true
	return g
}

func (o *coverOracle) Uncommit(c Candidate) { delete(o.placed, c) }

func randomOracle(seed uint64, servers, items, reqs int) (*coverOracle, []Candidate) {
	s := rng.New(seed)
	o := &coverOracle{
		items:  make([]int, reqs),
		cloud:  make([]float64, reqs),
		via:    make([][]float64, servers),
		cost:   make([]float64, items),
		budget: make([]float64, servers),
		placed: map[Candidate]bool{},
	}
	for r := 0; r < reqs; r++ {
		o.items[r] = s.IntN(items)
		o.cloud[r] = s.Uniform(50, 150)
	}
	for i := range o.via {
		o.via[i] = make([]float64, reqs)
		for r := range o.via[i] {
			o.via[i][r] = s.Uniform(0, 60)
		}
	}
	for k := range o.cost {
		o.cost[k] = []float64{30, 60, 90}[s.IntN(3)]
	}
	for i := range o.budget {
		o.budget[i] = s.Uniform(30, 200)
	}
	var cands []Candidate
	for i := 0; i < servers; i++ {
		for k := 0; k < items; k++ {
			cands = append(cands, Candidate{Server: i, Item: k})
		}
	}
	return o, cands
}

// exhaustiveBest finds the subset of candidates with the maximum total
// gain subject to feasibility by depth-first enumeration. Exponential in
// len(cands); it exists to measure greedy's empirical approximation
// ratio on small instances (Theorems 6–7).
func exhaustiveBest(cands []Candidate, o *coverOracle) (best []Candidate, bestGain float64) {
	var cur []Candidate
	var curGain float64
	var rec func(idx int)
	rec = func(idx int) {
		if curGain > bestGain {
			bestGain = curGain
			best = append([]Candidate(nil), cur...)
		}
		if idx >= len(cands) {
			return
		}
		// Branch 1: take cands[idx] if feasible.
		c := cands[idx]
		if o.Feasible(c) {
			g := o.Commit(c)
			cur = append(cur, c)
			curGain += g
			rec(idx + 1)
			curGain -= g
			cur = cur[:len(cur)-1]
			o.Uncommit(c)
		}
		// Branch 2: skip.
		rec(idx + 1)
	}
	rec(0)
	return best, bestGain
}

func clone(o *coverOracle) *coverOracle {
	c := *o
	c.placed = map[Candidate]bool{}
	return &c
}

func TestGreedyRespectsBudgets(t *testing.T) {
	o, cands := randomOracle(1, 4, 3, 40)
	res := GreedyOpt(cands, o, Options{})
	for i := range o.budget {
		if o.used(i) > o.budget[i]+1e-9 {
			t.Errorf("server %d over budget: %v > %v", i, o.used(i), o.budget[i])
		}
	}
	if res.TotalGain <= 0 {
		t.Error("greedy achieved no gain on a gainful instance")
	}
	seen := map[Candidate]bool{}
	for _, c := range res.Chosen {
		if seen[c] {
			t.Errorf("candidate %v chosen twice", c)
		}
		seen[c] = true
	}
}

func TestGreedyPicksRatioNotRawGain(t *testing.T) {
	// Two candidates, budget fits only one: a 90-cost item saving 100,
	// versus a 30-cost item saving 60. Ratio rule must take the latter
	// (2.0 > 1.11).
	o := &coverOracle{
		items:  []int{0, 1},
		cloud:  []float64{100, 60},
		via:    [][]float64{{0, 0}},
		cost:   []float64{90, 30},
		budget: []float64{90},
		placed: map[Candidate]bool{},
	}
	cands := []Candidate{{Server: 0, Item: 0}, {Server: 0, Item: 1}}
	res := GreedyOpt(cands, o, Options{})
	if len(res.Chosen) == 0 || res.Chosen[0] != (Candidate{Server: 0, Item: 1}) {
		t.Fatalf("first pick = %v, want the high-ratio small item", res.Chosen)
	}
}

// TestLazyGreedyMatchesGreedy checks that CELF with per-item staleness
// epochs commits exactly the literal loop's sequence, with the
// bit-identical total gain, on coverOracle (item-local: the gain of item
// k reads only item k's requests and replicas).
func TestLazyGreedyMatchesGreedy(t *testing.T) {
	check := func(seed uint64, oa *coverOracle, cands []Candidate) {
		t.Helper()
		ob := clone(oa)
		ra := GreedyOpt(cands, oa, Options{})
		rb := LazyGreedyOpt(cands, ob, Options{})
		if !reflect.DeepEqual(ra.Chosen, rb.Chosen) {
			t.Fatalf("seed %d: sequences diverge:\ngreedy %v\nlazy   %v", seed, ra.Chosen, rb.Chosen)
		}
		if ra.TotalGain != rb.TotalGain {
			t.Fatalf("seed %d: gains differ: %v vs %v", seed, ra.TotalGain, rb.TotalGain)
		}
		// CELF must not evaluate more than the naive loop.
		if rb.Evaluations > ra.Evaluations {
			t.Errorf("seed %d: lazy did %d evals, naive %d", seed, rb.Evaluations, ra.Evaluations)
		}
	}
	for seed := uint64(1); seed <= 12; seed++ {
		oa, cands := randomOracle(seed, 5, 4, 60)
		check(seed, oa, cands)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		oa, cands := randomOracle(seed*29, 6, 6, 150)
		check(seed*29, oa, cands)
	}
}

func TestLazyGreedySavesEvaluations(t *testing.T) {
	oa, cands := randomOracle(3, 8, 6, 150)
	ob := clone(oa)
	ra := GreedyOpt(cands, oa, Options{})
	rb := LazyGreedyOpt(cands, ob, Options{})
	if ra.Evaluations <= rb.Evaluations {
		t.Skipf("instance too easy to demonstrate CELF savings: %d vs %d", ra.Evaluations, rb.Evaluations)
	}
}

// tombstoneGreedy is the historical Greedy implementation (commit marks
// the candidate with Server=-1 and every round rescans the full slice).
// It is kept here as the behavioural reference for the swap-remove
// rewrite: the committed sequences must be identical.
func tombstoneGreedy(cands []Candidate, o Oracle) Result {
	res := Result{Chosen: make([]Candidate, 0, len(cands))}
	remaining := append([]Candidate(nil), cands...)
	for {
		bestIdx := -1
		bestRatio := 0.0
		for idx, c := range remaining {
			if c.Server < 0 || !o.Feasible(c) {
				continue
			}
			g := o.Gain(c)
			res.Evaluations++
			if g <= 0 {
				continue
			}
			ratio := g / math.Max(o.Cost(c), 1e-12)
			if ratio > bestRatio {
				bestRatio = ratio
				bestIdx = idx
			}
		}
		if bestIdx < 0 {
			return res
		}
		c := remaining[bestIdx]
		res.TotalGain += o.Commit(c)
		res.Chosen = append(res.Chosen, c)
		remaining[bestIdx].Server = -1
	}
}

// TestGreedySwapRemoveMatchesTombstone asserts the swap-remove rewrite
// commits exactly the sequence the historical tombstone loop committed,
// with the same realized gains, while never evaluating more candidates.
func TestGreedySwapRemoveMatchesTombstone(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		oa, cands := randomOracle(seed, 6, 5, 80)
		ob := clone(oa)
		got := GreedyOpt(cands, oa, Options{})
		ref := tombstoneGreedy(cands, ob)
		if !reflect.DeepEqual(got.Chosen, ref.Chosen) {
			t.Fatalf("seed %d: sequences diverge:\nswap-remove %v\ntombstone   %v", seed, got.Chosen, ref.Chosen)
		}
		if got.TotalGain != ref.TotalGain {
			t.Fatalf("seed %d: gains diverge: %v vs %v", seed, got.TotalGain, ref.TotalGain)
		}
		if got.Evaluations > ref.Evaluations {
			t.Fatalf("seed %d: swap-remove evaluated more: %d vs %d", seed, got.Evaluations, ref.Evaluations)
		}
	}
}

// TestGreedyTieBreakSurvivesSwapRemove forces exact gain-per-cost ties
// between candidates whose scan positions the swap-remove loop scrambles
// and checks the original-index tie-break still wins: the committed
// order must be ascending candidate index among the tied group, matching
// both the tombstone loop and LazyGreedy.
func TestGreedyTieBreakSurvivesSwapRemove(t *testing.T) {
	// Four servers, one item each of identical cost; every candidate
	// saves exactly 70 for its own private request. All ratios tie.
	o := &coverOracle{
		items: []int{0, 1, 2, 3},
		cloud: []float64{100, 100, 100, 100},
		via: [][]float64{
			{30, 100, 100, 100},
			{100, 30, 100, 100},
			{100, 100, 30, 100},
			{100, 100, 100, 30},
		},
		cost:   []float64{30, 30, 30, 30},
		budget: []float64{30, 30, 30, 30},
		placed: map[Candidate]bool{},
	}
	var cands []Candidate
	for i := 0; i < 4; i++ {
		cands = append(cands, Candidate{Server: i, Item: i})
	}
	got := GreedyOpt(cands, clone(o), Options{})
	want := cands // ascending index order
	if !reflect.DeepEqual(got.Chosen, want) {
		t.Fatalf("tied candidates committed out of index order: %v", got.Chosen)
	}
	lazy := LazyGreedyOpt(cands, clone(o), Options{})
	if !reflect.DeepEqual(lazy.Chosen, want) {
		t.Fatalf("LazyGreedy broke the tie differently: %v", lazy.Chosen)
	}
	ref := tombstoneGreedy(cands, clone(o))
	if !reflect.DeepEqual(ref.Chosen, want) {
		t.Fatalf("tombstone reference broke the tie differently: %v", ref.Chosen)
	}
}

// globalEpochLazyGreedy is the historical CELF loop with one global
// staleness epoch: every commit marks every cached ratio stale. It is the
// reference the per-item epochs of LazyGreedyOpt are measured against.
func globalEpochLazyGreedy(cands []Candidate, o Oracle) Result {
	var res Result
	pq := seedHeap(cands, o, &res)
	pq.init()
	round := 0
	for len(pq) > 0 {
		top := pq[0]
		if !o.Feasible(top.c) {
			pq.popTop()
			continue
		}
		if top.round != round {
			g := o.Gain(top.c)
			res.Evaluations++
			if g <= 0 {
				pq.popTop()
				continue
			}
			pq[0].ratio = g / math.Max(o.Cost(top.c), 1e-12)
			pq[0].round = round
			pq.siftDown(0)
			continue
		}
		pq.popTop()
		res.TotalGain += o.Commit(top.c)
		res.Chosen = append(res.Chosen, top.c)
		round++
	}
	return res
}

// TestItemLocalGainsSkipsOnlyUnchangedRefreshes pins the per-item
// staleness epochs on an item-partitioned oracle (coverOracle's gain for
// item k reads only item k's requests and replicas): LazyGreedyOpt must
// commit the same sequence with the bit-identical total gain as the
// global-epoch loop, and strictly fewer evaluations.
func TestItemLocalGainsSkipsOnlyUnchangedRefreshes(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		oa, cands := randomOracle(seed*29, 6, 6, 150)
		ob := clone(oa)
		global := globalEpochLazyGreedy(cands, oa)
		local := LazyGreedyOpt(cands, ob, Options{})
		if !reflect.DeepEqual(global.Chosen, local.Chosen) {
			t.Fatalf("seed %d: per-item epochs changed the sequence:\nglobal %v\nlocal  %v",
				seed, global.Chosen, local.Chosen)
		}
		if global.TotalGain != local.TotalGain {
			t.Fatalf("seed %d: gains diverge: %v vs %v", seed, global.TotalGain, local.TotalGain)
		}
		if local.Evaluations >= global.Evaluations {
			t.Fatalf("seed %d: per-item epochs saved no evaluations: %d vs %d",
				seed, local.Evaluations, global.Evaluations)
		}
	}
}

func TestGreedyStopsOnZeroGain(t *testing.T) {
	// Edge replicas that never beat the cloud yield zero gain and must
	// not be placed.
	o := &coverOracle{
		items:  []int{0},
		cloud:  []float64{10},
		via:    [][]float64{{50}}, // worse than cloud
		cost:   []float64{30},
		budget: []float64{300},
		placed: map[Candidate]bool{},
	}
	res := GreedyOpt([]Candidate{{Server: 0, Item: 0}}, o, Options{})
	if len(res.Chosen) != 0 || res.TotalGain != 0 {
		t.Errorf("placed a useless replica: %+v", res)
	}
}

func TestGreedyWithinApproxBoundOfExhaustive(t *testing.T) {
	// Theorem 6: greedy's reduction ≥ (e−1)/2e ≈ 0.316 of optimal.
	// Empirically greedy is far better; assert the theorem's bound.
	bound := (math.E - 1) / (2 * math.E)
	for seed := uint64(20); seed < 30; seed++ {
		og, cands := randomOracle(seed, 2, 3, 8)
		oe := clone(og)
		rg := GreedyOpt(cands, og, Options{})
		_, opt := exhaustiveBest(cands, oe)
		if opt == 0 {
			continue
		}
		if rg.TotalGain < bound*opt-1e-9 {
			t.Errorf("seed %d: greedy gain %v below bound %v of optimal %v", seed, rg.TotalGain, bound, opt)
		}
		if rg.TotalGain > opt+1e-9 {
			t.Errorf("seed %d: greedy gain %v exceeds optimal %v", seed, rg.TotalGain, opt)
		}
	}
}

func TestExhaustiveBestHandlesEmpty(t *testing.T) {
	o, _ := randomOracle(5, 2, 2, 5)
	best, gain := exhaustiveBest(nil, o)
	if len(best) != 0 || gain != 0 {
		t.Errorf("empty search returned %v/%v", best, gain)
	}
}

func TestExhaustiveRestoresState(t *testing.T) {
	o, cands := randomOracle(6, 2, 2, 10)
	exhaustiveBest(cands, o)
	if len(o.placed) != 0 {
		t.Errorf("search left %d placements behind", len(o.placed))
	}
}
