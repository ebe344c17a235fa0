// Package placement implements budgeted greedy maximization for data
// delivery profiles: the naive argmax loop of Algorithm 1 Phase 2
// (Eq. 17) and an accelerated lazy-greedy (CELF-style) variant that
// exploits the submodularity of latency reduction.
//
// The oracle abstraction decouples the greedy from the IDDE latency
// model. Deliver (deliver.go) binds the engine to the model's latency
// oracles: it is the one Phase 2 driver of the global and the sharded
// solver and of repair's re-placement.
package placement

import (
	"math"

	"idde/internal/obs"
)

// Candidate identifies a delivery decision σ_{i,k}: put item Item on
// server Server.
type Candidate struct {
	Server, Item int
}

// Oracle exposes the marginal structure of a placement problem.
// Gains must be monotone non-increasing as decisions commit
// (submodularity) and item-local — a Commit changes only the gains of
// candidates sharing its Item, as in both IDDE delivery oracles, whose
// state is partitioned by item — for LazyGreedyOpt to match GreedyOpt.
// Feasibility may change across items. The engines call every method
// from the caller's goroutine, one call at a time.
type Oracle interface {
	// Gain reports the total objective reduction of committing c now.
	Gain(c Candidate) float64
	// Cost reports the storage consumed by c (s_k).
	Cost(c Candidate) float64
	// Feasible reports whether c currently fits (Eq. 6). Feasibility
	// must be monotone: once infeasible, always infeasible.
	Feasible(c Candidate) bool
	// Commit applies c and returns the realized gain.
	Commit(c Candidate) float64
}

// Result summarizes a greedy run.
type Result struct {
	Chosen []Candidate
	// TotalGain is the realized objective reduction ΔL(σ).
	TotalGain float64
	// Evaluations counts oracle Gain calls (the CELF speedup metric).
	Evaluations int
}

// Options tunes the greedy engines. The zero value is IDDE-G's Phase 2
// configuration.
type Options struct {
	// Obs receives the engine's telemetry: per-commit trace events
	// (when a tracer is attached), a commit-gain histogram, and the
	// final Result cross-wired into counters. nil disables all of it;
	// the committed sequence and Result are identical either way.
	Obs *obs.Scope
}

// GreedyOpt runs the literal Algorithm 1 Phase 2 loop: every round,
// re-evaluate every remaining feasible candidate and commit the one
// with the highest gain-per-cost ratio; stop when nothing feasible has
// positive gain. Committed candidates are swap-removed from the working
// set (no tombstones to re-scan) and infeasible candidates are dropped
// permanently (the Oracle contract makes infeasibility monotone); exact
// ratio ties are broken by original candidate index, so the committed
// sequence is independent of the resulting scan order and identical to
// the historical tombstone loop and to LazyGreedyOpt. Obs lets the
// reference path emit the same telemetry as LazyGreedyOpt.
func GreedyOpt(cands []Candidate, o Oracle, opt Options) Result {
	res := Result{Chosen: make([]Candidate, 0, len(cands))}
	remaining := append([]Candidate(nil), cands...)
	orig := make([]int, len(cands))
	for idx := range orig {
		orig[idx] = idx
	}
	for {
		bestIdx, bestOrig := -1, -1
		bestRatio := 0.0
		w := 0
		for idx := 0; idx < len(remaining); idx++ {
			c := remaining[idx]
			if !o.Feasible(c) {
				continue // capacity shrank; gone forever
			}
			remaining[w], orig[w] = c, orig[idx]
			g := o.Gain(c)
			res.Evaluations++
			if g > 0 {
				cost := o.Cost(c)
				ratio := g / math.Max(cost, 1e-12)
				if ratio > bestRatio || (ratio == bestRatio && bestIdx >= 0 && orig[w] < bestOrig) {
					bestRatio, bestIdx, bestOrig = ratio, w, orig[w]
				}
			}
			w++
		}
		remaining, orig = remaining[:w], orig[:w]
		if bestIdx < 0 {
			publishResult(opt.Obs, &res)
			return res
		}
		c := remaining[bestIdx]
		realized := o.Commit(c)
		res.TotalGain += realized
		res.Chosen = append(res.Chosen, c)
		traceCommit(opt.Obs, o, &res, c, realized, bestRatio)
		last := len(remaining) - 1
		remaining[bestIdx], orig[bestIdx] = remaining[last], orig[last]
		remaining, orig = remaining[:last], orig[:last]
	}
}

// LazyGreedyOpt runs the Eq. 17 policy with a lazy priority queue:
// stale upper bounds are refreshed only when a candidate reaches the
// top. For submodular gains the output matches GreedyOpt while evaluating
// far fewer candidates. Staleness is tracked per item: a commit bumps
// only its own item's epoch, so candidates of other items keep their
// provably unchanged cached ratios (the same argument as the game
// engine's dirty-set scheduler).
func LazyGreedyOpt(cands []Candidate, o Oracle, opt Options) Result {
	var res Result
	pq := seedHeap(cands, o, &res)
	pq.init()
	res.Chosen = make([]Candidate, 0, len(pq))
	maxItem := -1
	for _, c := range cands {
		maxItem = max(maxItem, c.Item)
	}
	itemRound := make([]int, maxItem+1)
	for len(pq) > 0 {
		top := pq[0]
		if !o.Feasible(top.c) {
			pq.popTop() // capacity shrank; gone forever
			continue
		}
		epoch := itemRound[top.c.Item]
		if top.round != epoch {
			// Stale bound: refresh and reposition. Submodularity means the
			// refreshed ratio never rises, so sifting down from the root is
			// the complete repositioning.
			g := o.Gain(top.c)
			res.Evaluations++
			if g <= 0 {
				pq.popTop()
				continue
			}
			pq[0].ratio = g / math.Max(o.Cost(top.c), 1e-12)
			pq[0].round = epoch
			pq.siftDown(0)
			continue
		}
		pq.popTop()
		realized := o.Commit(top.c)
		res.TotalGain += realized
		res.Chosen = append(res.Chosen, top.c)
		traceCommit(opt.Obs, o, &res, top.c, realized, top.ratio)
		itemRound[top.c.Item]++
	}
	publishResult(opt.Obs, &res)
	return res
}

// publishResult cross-wires the final Result into the scope's registry;
// the struct fields and the counters are written from the same values,
// so they can never drift.
func publishResult(sc *obs.Scope, res *Result) {
	if !sc.Enabled() {
		return
	}
	sc.Count("placement_runs_total", 1)
	sc.Count("placement_commits_total", int64(len(res.Chosen)))
	sc.Count("placement_evaluations_total", int64(res.Evaluations))
	sc.SetGauge("placement_last_total_gain", res.TotalGain)
}

// traceCommit records one committed delivery decision: a histogram
// sample of the realized gain and — when a tracer is attached — an
// instant event with the CELF iteration state. Called from the
// serialized commit section of both engines; with a nil scope this is
// one branch and zero allocations.
func traceCommit(sc *obs.Scope, o Oracle, res *Result, c Candidate, realized, ratio float64) {
	if sc == nil {
		return
	}
	sc.Observe("placement_commit_gain", realized)
	if !sc.Tracing() {
		return
	}
	sc.Instant("placement", "commit", map[string]any{
		"iter":       len(res.Chosen) - 1,
		"server":     c.Server,
		"item":       c.Item,
		"gain":       realized,
		"ratio":      ratio,
		"cost":       o.Cost(c),
		"total_gain": res.TotalGain,
		"evals":      res.Evaluations,
	})
}

// seedHeap evaluates every candidate's initial gain in candidate order
// and returns the un-heapified seed slice of the positive ones.
func seedHeap(cands []Candidate, o Oracle, res *Result) lazyHeap {
	pq := make(lazyHeap, 0, len(cands))
	for idx, c := range cands {
		if !o.Feasible(c) {
			continue
		}
		g := o.Gain(c)
		res.Evaluations++
		if g <= 0 {
			continue
		}
		pq = append(pq, lazyEntry{c: c, idx: idx, ratio: g / math.Max(o.Cost(c), 1e-12)})
	}
	return pq
}

type lazyEntry struct {
	c     Candidate
	idx   int // position in the original cands slice
	ratio float64
	round int
}

// lazyHeap is a hand-rolled binary max-heap: the CELF loop performs one
// pop or root-fix per evaluation, and going through container/heap's
// interface costs a dynamic Less/Swap dispatch per sift level — the
// dominant Phase 2 engine overhead once the oracle itself is cheap.
// The ordering (ratio descending, exact ties by original candidate
// index ascending — the same first-max-wins rule the literal GreedyOpt
// re-scan applies) is a strict total order, so the pop sequence is a
// function of the heap's contents alone and the committed sequence is
// independent of the internal element arrangement.
type lazyHeap []lazyEntry

func (h lazyHeap) less(i, j int) bool {
	if h[i].ratio != h[j].ratio {
		return h[i].ratio > h[j].ratio
	}
	return h[i].idx < h[j].idx
}

// siftDown restores the heap property below i.
func (h lazyHeap) siftDown(i int) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// init heapifies in O(n).
func (h lazyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// popTop removes the maximum element.
func (h *lazyHeap) popTop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0)
	}
}
