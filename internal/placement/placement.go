// Package placement implements budgeted greedy maximization for data
// delivery profiles: the naive argmax loop of Algorithm 1 Phase 2
// (Eq. 17), an accelerated lazy-greedy (CELF-style) variant that
// exploits the submodularity of latency reduction, and an exhaustive
// optimal search for tiny instances used to verify the Theorem 6/7
// approximation bounds empirically.
//
// The oracle abstraction decouples the greedy from the IDDE latency
// model, so the CDP baseline and the core algorithm share one engine.
// Deliver (deliver.go) binds the engine to the model's latency oracles:
// it is the one Phase 2 driver of the global and the sharded solver.
package placement

import (
	"math"
	"runtime"
	"sync"

	"idde/internal/obs"
)

// Candidate identifies a delivery decision σ_{i,k}: put item Item on
// server Server.
type Candidate struct {
	Server, Item int
}

// Oracle exposes the marginal structure of a placement problem.
// Gains must be monotone non-increasing as decisions commit
// (submodularity) for LazyGreedy to match Greedy. When the parallel
// seed scan is enabled (Options.Parallel), Gain, Cost and Feasible must
// additionally be safe for concurrent invocation while no Commit is in
// flight — true for read-only evaluators like the model latency states.
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

// DefaultParallelThreshold is the candidate count below which the
// parallel seed scan is not worth the goroutine fan-out.
const DefaultParallelThreshold = 512

// Options tunes the greedy engines. The zero value is the historical
// behaviour (sequential seeding); embedders replace an unset zero value
// with DefaultOptions (see Resolve).
type Options struct {
	// Parallel enables the concurrent LazyGreedy seed scan. The initial
	// gains are evaluated against the empty delivery profile, so they
	// are commit-independent; workers fan out over disjoint candidate
	// ranges and the results are merged back in candidate order, making
	// the seeded heap — and therefore the committed sequence —
	// bit-identical to the sequential scan. Requires an Oracle whose
	// read methods tolerate concurrent calls (see Oracle).
	Parallel bool
	// ParallelThreshold is the minimum candidate count before the
	// parallel scan kicks in; 0 means DefaultParallelThreshold.
	ParallelThreshold int
	// ItemLocalGains declares that a Commit only changes the gains of
	// candidates sharing its Item — true for both IDDE delivery oracles,
	// whose state is partitioned by item, so Deliver always sets it
	// (feasibility may still change across items; it is re-checked at
	// every pop). LazyGreedy then tracks staleness per item instead of
	// globally, skipping refresh evaluations whose result is provably
	// the cached ratio. The pop — and therefore commit — sequence is
	// bit-identical; only Result.Evaluations drops (the same argument as
	// the game engine's dirty-set scheduler).
	ItemLocalGains bool
	// MaxCommits caps the number of committed decisions (0 =
	// unlimited). The greedy stops as soon as the cap is reached; the
	// committed prefix is identical to the uncapped run's first
	// MaxCommits decisions. The sharded solver's reconcile pass uses it
	// to bound the final global re-commit sweep.
	MaxCommits int
	// Obs receives the engine's telemetry: per-commit trace events
	// (when a tracer is attached), a commit-gain histogram, and the
	// final Result cross-wired into counters. nil disables all of it;
	// the committed sequence and Result are identical either way.
	// Embedders that resolve a zero-value Options to defaults
	// (core.Solve) inject the scope after resolution, mirroring
	// game.Options.Obs.
	Obs *obs.Scope
	// Set marks the Options as explicitly configured, shielding an
	// intentionally all-zero configuration from default replacement by
	// embedders (mirrors game.Options.Set).
	Set bool
}

// NewOptions marks o as explicitly configured.
func NewOptions(o Options) Options {
	o.Set = true
	return o
}

// DefaultOptions returns the configuration used by IDDE-G's Phase 2.
func DefaultOptions() Options {
	return Options{Parallel: true, Set: true}
}

// Resolve replaces an unset zero-value Options with DefaultOptions,
// under the same rules as game.Options.Resolve: Set shields an
// explicitly all-zero configuration, and Obs is not configuration.
func (o Options) Resolve() Options {
	sc := o.Obs
	o.Obs = nil
	if o == (Options{}) {
		o = DefaultOptions()
	}
	o.Obs = sc
	return o
}

// Greedy runs the literal Algorithm 1 Phase 2 loop: every round,
// re-evaluate every remaining feasible candidate and commit the one
// with the highest gain-per-cost ratio; stop when nothing feasible has
// positive gain. Committed candidates are swap-removed from the working
// set (no tombstones to re-scan) and infeasible candidates are dropped
// permanently (the Oracle contract makes infeasibility monotone); exact
// ratio ties are broken by original candidate index, so the committed
// sequence is independent of the resulting scan order and identical to
// the historical tombstone loop and to LazyGreedy.
func Greedy(cands []Candidate, o Oracle) Result {
	return GreedyOpt(cands, o, Options{})
}

// GreedyOpt is Greedy with an Options surface; the naive engine ignores
// every knob except Obs (the re-scan loop is inherently sequential),
// which lets the reference path emit the same telemetry as LazyGreedy.
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
		if opt.MaxCommits > 0 && len(res.Chosen) >= opt.MaxCommits {
			publishResult(opt.Obs, &res)
			return res
		}
		last := len(remaining) - 1
		remaining[bestIdx], orig[bestIdx] = remaining[last], orig[last]
		remaining, orig = remaining[:last], orig[:last]
	}
}

// LazyGreedy runs the same policy with a lazy priority queue and the
// zero-value Options (sequential seeding); see LazyGreedyOpt.
func LazyGreedy(cands []Candidate, o Oracle) Result {
	return LazyGreedyOpt(cands, o, Options{})
}

// LazyGreedyOpt runs the Eq. 17 policy with a lazy priority queue:
// stale upper bounds are refreshed only when a candidate reaches the
// top. For submodular gains the output matches Greedy while evaluating
// far fewer candidates. The seed scan — the N·K initial gain
// evaluations against the empty profile — optionally fans out to
// GOMAXPROCS workers (Options.Parallel); the merge happens in candidate
// order, so the result is bit-deterministic either way.
func LazyGreedyOpt(cands []Candidate, o Oracle, opt Options) Result {
	var res Result
	pq := seedHeap(cands, o, opt, &res)
	pq.init()
	res.Chosen = make([]Candidate, 0, len(pq))
	// With ItemLocalGains the staleness epoch is tracked per item: a
	// commit bumps only its own item's epoch, so candidates of other
	// items keep their provably unchanged cached ratios.
	var itemRound []int
	if opt.ItemLocalGains {
		maxItem := -1
		for _, c := range cands {
			if c.Item > maxItem {
				maxItem = c.Item
			}
		}
		itemRound = make([]int, maxItem+1)
	}
	round := 0
	for len(pq) > 0 {
		top := pq[0]
		if !o.Feasible(top.c) {
			pq.popTop() // capacity shrank; gone forever
			continue
		}
		epoch := round
		if itemRound != nil {
			epoch = itemRound[top.c.Item]
		}
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
		if opt.MaxCommits > 0 && len(res.Chosen) >= opt.MaxCommits {
			break
		}
		round++
		if itemRound != nil {
			itemRound[top.c.Item]++
		}
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

// seedHeap evaluates every candidate's initial gain and assembles the
// un-heapified seed slice. With Options.Parallel and enough candidates
// the evaluations fan out to GOMAXPROCS workers over disjoint index
// ranges; every candidate is evaluated exactly once in both modes and
// the merge walks ascending candidate order, so the returned slice —
// and Result.Evaluations — are identical to the sequential scan.
func seedHeap(cands []Candidate, o Oracle, opt Options, res *Result) lazyHeap {
	thresh := opt.ParallelThreshold
	if thresh <= 0 {
		thresh = DefaultParallelThreshold
	}
	workers := runtime.GOMAXPROCS(0)
	if !opt.Parallel || len(cands) < thresh || workers < 2 {
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

	sp, _ := seedPool.Get().(*[]seed)
	if sp == nil {
		sp = new([]seed)
	}
	seeds := *sp
	if cap(seeds) < len(cands) {
		seeds = make([]seed, len(cands))
	} else {
		// Recycled scratch: workers skip infeasible candidates, so stale
		// entries from the previous scan must be cleared first.
		seeds = seeds[:len(cands)]
		clear(seeds)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	var wg sync.WaitGroup
	chunk := (len(cands) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(cands))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for idx := lo; idx < hi; idx++ {
				c := cands[idx]
				if !o.Feasible(c) {
					continue
				}
				g := o.Gain(c)
				seeds[idx].evaluated = true
				if g <= 0 {
					continue
				}
				seeds[idx].positive = true
				seeds[idx].ratio = g / math.Max(o.Cost(c), 1e-12)
			}
		}(lo, hi)
	}
	wg.Wait()
	pq := make(lazyHeap, 0, len(cands))
	for idx := range seeds {
		if seeds[idx].evaluated {
			res.Evaluations++
		}
		if seeds[idx].positive {
			pq = append(pq, lazyEntry{c: cands[idx], idx: idx, ratio: seeds[idx].ratio})
		}
	}
	*sp = seeds
	seedPool.Put(sp)
	return pq
}

// seed is one parallel seed-scan result slot; the slices live in
// seedPool so repeated solves reuse one scratch buffer.
type seed struct {
	ratio     float64
	evaluated bool
	positive  bool
}

var seedPool sync.Pool

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
// index ascending — the same first-max-wins rule the literal Greedy
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

// SearchOracle extends Oracle with the rollback needed for exhaustive
// search. Only tiny test instances implement it.
type SearchOracle interface {
	Oracle
	// Uncommit reverses the most recent Commit.
	Uncommit(c Candidate)
}

// ExhaustiveBest finds the subset of candidates with the maximum total
// gain subject to feasibility by depth-first enumeration. Exponential in
// len(cands); it exists to measure greedy's empirical approximation
// ratio on small instances (Theorems 6–7).
func ExhaustiveBest(cands []Candidate, o SearchOracle) (best []Candidate, bestGain float64) {
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
