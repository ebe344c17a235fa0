// Package game provides a generic best-response dynamics engine for
// finite strategic games. The IDDE-U user-allocation game of IDDE-G's
// Phase 1 and the DUP-G baseline both run on it.
//
// The engine implements the update protocol of Algorithm 1 (lines 5–21):
// in every round each player computes its best response to the current
// profile and, if it improves on the current decision, submits an update
// request; one winner per round commits its move. For potential games
// this serialization is exactly what makes the Monderer–Shapley finite
// improvement property apply, so the dynamics terminate in a Nash
// equilibrium. A faster round-robin policy (every player commits
// immediately, in sequence) is provided as an ablation — it is also an
// improvement path, hence also terminates on potential games, but it is
// not the paper's protocol.
//
// # Dirty-set scheduling
//
// Re-evaluating every player every round is wasted work when a commit
// only perturbs a bounded neighbourhood of the profile — in the IDDE-U
// game a move touches two (server, channel) cells, and only players
// covered by those servers can see their Eq. 12 benefit change. Adapters
// that can enumerate that neighbourhood implement Localized; the engine
// then caches every player's last proposal, invalidates only the
// affected ones after each commit, and keeps the cached gains in an
// indexed max-heap so a winner-takes-all round costs
// O(|affected|·eval + |affected|·log M) instead of O(M·eval). The
// committed move sequence — and therefore the equilibrium and the
// Rounds/Updates accounting of Theorem 4 — is provably identical to the
// full scan: a cached proposal is only reused when the player's payoff
// landscape is untouched, so a fresh evaluation would return the same
// decision bit for bit. Options.FullScan forces the literal protocol for
// core.ReferenceOptions and the differential tests built on it.
package game

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"idde/internal/obs"
)

// Adapter connects a concrete game to the engine. Decisions are opaque
// values of type D. Best must be safe for concurrent invocation with
// distinct players while the profile is not being mutated; Apply is
// always called from a single goroutine.
type Adapter[D any] interface {
	// NumPlayers reports the number of players.
	NumPlayers() int
	// Best returns player j's best response to the current profile
	// together with its benefit, and the benefit of j's current
	// decision.
	Best(j int) (d D, benefit float64, current float64)
	// Apply commits decision d for player j.
	Apply(j int, d D)
}

// Localized is an optional Adapter extension for games where a commit
// perturbs only a bounded neighbourhood of players. Implementing it
// enables the dirty-set scheduler (see the package comment).
type Localized[D any] interface {
	Adapter[D]
	// Affected reports the players whose payoff landscape may change
	// when player j commits decision d. It is called immediately before
	// Apply(j, d), so the adapter can still read j's pre-move state.
	// The result may contain duplicates and need not include j (the
	// engine always re-evaluates the mover), but it MUST be a superset
	// of every player whose payoff for any decision changes — an
	// under-approximation silently serves stale proposals. The returned
	// slice is only read until the next Affected or Apply call, so
	// adapters may reuse one buffer.
	Affected(j int, d D) []int
}

// RoundMetrics is an optional Adapter extension for traced runs: when
// the engine records a round event it asks the adapter for domain-level
// scalars (e.g. the IDDE-U average rate or the Eq. 13 potential) to
// attach alongside the engine's own round/updates/gain attributes. Only
// called when Options.Obs has a tracer attached, so implementations may
// be arbitrarily expensive without taxing production runs.
type RoundMetrics interface {
	// RoundMetrics pushes named per-round metrics through put. It is
	// called from the engine's serialized section after the round's
	// commit (or at convergence), so the adapter sees a quiescent
	// profile.
	RoundMetrics(put func(key string, v float64))
}

// Policy selects the update arbitration.
type Policy int

const (
	// WinnerTakesAll is Algorithm 1's protocol: all players propose,
	// the largest improvement wins, one move commits per round.
	WinnerTakesAll Policy = iota
	// RoundRobin lets every player commit its best response in index
	// order within a round; much faster in wall-clock, identical
	// fixed points.
	RoundRobin
)

func (p Policy) String() string {
	switch p {
	case WinnerTakesAll:
		return "winner-takes-all"
	case RoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// DefaultParallelThreshold is the player count below which the parallel
// proposal scan is not worth the goroutine fan-out.
const DefaultParallelThreshold = 64

// Options tunes the dynamics.
type Options struct {
	Policy Policy
	// Epsilon is the minimum absolute benefit improvement that counts
	// as an update request; it guards against floating-point livelock.
	Epsilon float64
	// MaxUpdates caps committed moves (0 means 200·players, comfortably
	// above the Theorem 4 bound at the paper's scales).
	MaxUpdates int
	// PerPlayerCap bounds how many updates a single player may commit
	// (0 = unlimited). The IDDE-U game is only a potential game under
	// the uniform-gain assumption of Theorem 3's proof; with
	// heterogeneous gains, best-response dynamics can cycle (a concrete
	// two-player pursuit cycle is exhibited in the core tests). The cap
	// operationalizes Theorem 4's bounded-iteration claim: players that
	// exhaust their budget freeze at their current (already
	// best-responded) decision, and the dynamics terminate in an
	// equilibrium of the remaining players.
	PerPlayerCap int
	// Parallel enables the concurrent best-response scan.
	Parallel bool
	// ParallelThreshold is the minimum number of players (or, for
	// dirty-set rounds, invalidated players) before the parallel scan
	// kicks in; 0 means DefaultParallelThreshold. Benches force either
	// path by setting it to 1 or disabling Parallel.
	ParallelThreshold int
	// Obs receives the engine's telemetry: per-round trace events (when
	// a tracer is attached), a round-size histogram, and the final
	// Stats cross-wired into counters. nil disables all of it at the
	// cost of one branch per round; the commit sequence and Stats are
	// identical either way. Embedders that resolve a zero-value Options
	// to defaults (core.Solve) inject the scope after resolution, so
	// setting only Obs does not count as "explicitly configured".
	Obs *obs.Scope
	// FullScan forces the literal Algorithm 1 re-evaluation of every
	// player each round even when the adapter is Localized. The commit
	// sequence and the Rounds/Updates/Converged/Frozen stats are
	// identical either way (the dirty-set scheduler only skips provably
	// unchanged proposals); only wall-clock and Evaluations differ.
	// This is the reference mode for differential tests and baselines.
	FullScan bool
	// Set marks the Options as explicitly configured. Embedders (e.g.
	// core.Solve) replace a zero-value Options with their defaults; an
	// intentionally all-zero configuration — sequential winner-takes-all
	// with Epsilon 0 and no caps — must carry Set (use NewOptions) to
	// survive that replacement.
	Set bool
}

// NewOptions marks o as explicitly configured, shielding all-zero
// configurations from default replacement by embedders.
func NewOptions(o Options) Options {
	o.Set = true
	return o
}

// DefaultOptions returns the engine configuration used by IDDE-G.
func DefaultOptions() Options {
	return Options{Policy: WinnerTakesAll, Epsilon: 1e-12, PerPlayerCap: 16, Parallel: true, Set: true}
}

// Resolve replaces an unset zero-value Options with DefaultOptions.
// Explicitly configured options — even all-zero ones, which carry Set —
// pass through verbatim. A telemetry scope is not configuration: it is
// stripped before the zero-value comparison and re-attached, so
// Options{Obs: sc} still resolves to the defaults.
func (o Options) Resolve() Options {
	sc := o.Obs
	o.Obs = nil
	if o == (Options{}) {
		o = DefaultOptions()
	}
	o.Obs = sc
	return o
}

// Stats reports how the dynamics ran.
type Stats struct {
	// Rounds counts full best-response scans.
	Rounds int
	// Updates counts committed decision changes (the "iterations" of
	// Theorem 4).
	Updates int
	// Evaluations counts Adapter.Best calls. The dirty-set scheduler's
	// savings show up here: the full scan performs roughly
	// Rounds×players evaluations, the dirty-set engine only
	// Σ|affected|. Unlike the other fields it is NOT invariant across
	// scheduling modes.
	Evaluations int
	// Converged reports whether the dynamics reached a fixed point: no
	// eligible player can improve by more than Epsilon. Frozen players
	// (if any) are reported separately.
	Converged bool
	// Frozen counts players that exhausted PerPlayerCap; their final
	// decisions may admit improving deviations.
	Frozen int
}

// proposal caches one player's last evaluated best response.
type proposal[D any] struct {
	d    D
	gain float64
}

// runner carries the shared state of one Run invocation.
type runner[D any] struct {
	a      Adapter[D]
	opt    Options
	n      int
	thresh int
	props  []proposal[D]
	moves  []int
	evals  atomic.Int64
	st     Stats

	// Persistent worker pool for the parallel proposal scans: started
	// lazily on the first round that crosses the threshold and fed
	// index spans over per-worker channels, so a steady-state round
	// spawns no goroutines and allocates nothing. parFn is always one
	// of the two closures below, created once per Run; the channel
	// send/receive pairs give the happens-before edges for both the
	// parFn handoff and the workers' result writes.
	workers int
	jobs    []chan idxSpan
	jobDone chan struct{}
	parFn   func(idx int)
	scanFn  func(idx int) // full-scan proposal refresh: eval(idx)
	fillFn  func(idx int) // dirty-round refresh: pending[idx] → scratch[idx]

	// pending lists the players invalidated by the previous commit;
	// scratch receives their fresh proposals so each heap key changes
	// one at a time (a batched overwrite would break the sift
	// invariant).
	pending []int
	scratch []proposal[D]
}

// idxSpan is one worker's half-open index range for a parallel scan.
type idxSpan struct{ lo, hi int }

// Run executes best-response dynamics until no player can improve or
// the update budget is exhausted.
func Run[D any](a Adapter[D], opt Options) Stats {
	n := a.NumPlayers()
	if opt.MaxUpdates <= 0 {
		opt.MaxUpdates = 200 * n
		if opt.MaxUpdates < 1000 {
			opt.MaxUpdates = 1000
		}
	}
	thresh := opt.ParallelThreshold
	if thresh <= 0 {
		thresh = DefaultParallelThreshold
	}
	r := &runner[D]{
		a:      a,
		opt:    opt,
		n:      n,
		thresh: thresh,
		props:  make([]proposal[D], n),
		moves:  make([]int, n),
	}
	if n == 0 {
		r.st.Converged = true
		return r.st
	}
	r.scanFn = func(j int) { r.eval(j) }
	r.fillFn = func(idx int) {
		j := r.pending[idx]
		if !r.eligible(j) {
			r.scratch[idx] = proposal[D]{gain: 0}
			return
		}
		d, benefit, cur := r.a.Best(j)
		r.evals.Add(1)
		r.scratch[idx] = proposal[D]{d: d, gain: benefit - cur}
	}
	defer r.stopPool()
	loc, localized := a.(Localized[D])
	localized = localized && !opt.FullScan

	switch opt.Policy {
	case WinnerTakesAll:
		if localized {
			r.winnerDirty(loc)
		} else {
			r.winnerFullScan()
		}
	case RoundRobin:
		if localized {
			r.roundRobinDirty(loc)
		} else {
			r.roundRobinFullScan()
		}
	default:
		panic(fmt.Sprintf("game: unknown policy %d", int(opt.Policy)))
	}
	r.st.Evaluations = int(r.evals.Load())
	publishStats(opt.Obs, r.st)
	return r.st
}

// publishStats cross-wires the final Stats into the scope's registry.
// Both the returned struct and the counters are written from the same
// values in this one place, so the legacy fields and the metrics can
// never drift.
func publishStats(sc *obs.Scope, st Stats) {
	if !sc.Enabled() {
		return
	}
	sc.Count("game_runs_total", 1)
	sc.Count("game_rounds_total", int64(st.Rounds))
	sc.Count("game_updates_total", int64(st.Updates))
	sc.Count("game_evaluations_total", int64(st.Evaluations))
	if st.Converged {
		sc.Count("game_converged_runs_total", 1)
	}
	sc.SetGauge("game_last_frozen_players", float64(st.Frozen))
}

// traceRound records one dynamics round: a histogram sample of how many
// players were (re-)evaluated, and — when a tracer is attached — an
// instant event carrying the round's engine state plus any adapter
// RoundMetrics. Called from the serialized section of every loop driver
// after the round's commit, so the attributes reflect the profile the
// round produced; winner -1 marks a terminal (non-improving) round.
// With a nil scope this is one branch and zero allocations.
func (r *runner[D]) traceRound(winner int, gain float64, evaluated int) {
	sc := r.opt.Obs
	if sc == nil {
		return
	}
	sc.Observe("game_round_evals", float64(evaluated))
	if !sc.Tracing() {
		return
	}
	args := map[string]any{
		"round":   r.st.Rounds,
		"updates": r.st.Updates,
		"evals":   r.evals.Load(),
		"dirty":   evaluated,
		"winner":  winner,
		"gain":    gain,
	}
	if m, ok := r.a.(RoundMetrics); ok {
		m.RoundMetrics(func(key string, v float64) { args[key] = v })
	}
	sc.Instant("game", "round", args)
}

func (r *runner[D]) eligible(j int) bool {
	return r.opt.PerPlayerCap <= 0 || r.moves[j] < r.opt.PerPlayerCap
}

func (r *runner[D]) countFrozen() int {
	if r.opt.PerPlayerCap <= 0 {
		return 0
	}
	f := 0
	for _, m := range r.moves {
		if m >= r.opt.PerPlayerCap {
			f++
		}
	}
	return f
}

// eval refreshes player j's cached proposal.
func (r *runner[D]) eval(j int) {
	if !r.eligible(j) {
		r.props[j] = proposal[D]{gain: 0}
		return
	}
	d, benefit, cur := r.a.Best(j)
	r.evals.Add(1)
	r.props[j] = proposal[D]{d: d, gain: benefit - cur}
}

// startPool lazily launches the persistent scan workers. The worker
// count is pinned at first use; GOMAXPROCS changes after that point
// affect scheduling but not the chunking (which only has to be
// deterministic, and is — it depends on the count alone).
func (r *runner[D]) startPool() {
	if r.jobs != nil {
		return
	}
	r.workers = runtime.GOMAXPROCS(0)
	if r.workers > r.n {
		r.workers = r.n
	}
	r.jobs = make([]chan idxSpan, r.workers)
	if r.workers < 2 {
		return // forEach falls back to the inline loop
	}
	r.jobDone = make(chan struct{}, r.workers)
	for w := range r.jobs {
		ch := make(chan idxSpan)
		r.jobs[w] = ch
		go func(ch chan idxSpan) {
			for s := range ch {
				fn := r.parFn
				for idx := s.lo; idx < s.hi; idx++ {
					fn(idx)
				}
				r.jobDone <- struct{}{}
			}
		}(ch)
	}
}

// stopPool shuts the scan workers down at the end of Run.
func (r *runner[D]) stopPool() {
	for _, ch := range r.jobs {
		if ch != nil {
			close(ch)
		}
	}
	r.jobs = nil
}

// forEach runs fn over 0..count-1, fanning out to the worker pool when
// the parallel scan is enabled and worthwhile. fn must be one of the
// premade runner closures so steady-state rounds allocate nothing. The
// span partitioning is the same deterministic chunking the historical
// per-round goroutine fan-out used: workers write disjoint result
// slots, and every merge downstream walks index order, so the outcome
// is independent of worker scheduling.
func (r *runner[D]) forEach(count int, fn func(idx int)) {
	if !r.opt.Parallel || count < r.thresh {
		for idx := 0; idx < count; idx++ {
			fn(idx)
		}
		return
	}
	r.startPool()
	workers := r.workers
	if workers < 2 {
		for idx := 0; idx < count; idx++ {
			fn(idx)
		}
		return
	}
	if workers > count {
		workers = count
	}
	r.parFn = fn
	chunk := (count + workers - 1) / workers
	launched := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, count)
		if lo >= hi {
			break
		}
		r.jobs[w] <- idxSpan{lo, hi}
		launched++
	}
	for ; launched > 0; launched-- {
		<-r.jobDone
	}
}

// scanAll refreshes every cached proposal (one full Algorithm 1 scan).
func (r *runner[D]) scanAll() {
	r.forEach(r.n, r.scanFn)
}

// winnerFullScan is the literal Algorithm 1 protocol: every round
// re-evaluates every player and commits the single largest improvement.
func (r *runner[D]) winnerFullScan() {
	for r.st.Updates < r.opt.MaxUpdates {
		r.st.Rounds++
		r.scanAll()
		winner := -1
		bestGain := r.opt.Epsilon
		for j := range r.props {
			if r.props[j].gain > bestGain {
				bestGain = r.props[j].gain
				winner = j
			}
		}
		if winner < 0 {
			r.st.Converged = true
			r.st.Frozen = r.countFrozen()
			r.traceRound(-1, 0, r.n)
			return
		}
		r.a.Apply(winner, r.props[winner].d)
		r.moves[winner]++
		r.st.Updates++
		r.traceRound(winner, bestGain, r.n)
	}
	r.st.Frozen = r.countFrozen()
}

// winnerDirty implements winner-takes-all over cached proposals: after a
// commit only the players the adapter reports as affected are
// re-evaluated, and the cached gains live in an indexed max-heap keyed
// (gain desc, player asc) — the same argmax-with-lowest-index-tie-break
// the full scan computes, so the move sequence is identical.
func (r *runner[D]) winnerDirty(loc Localized[D]) {
	n := r.n
	heapArr := make([]int, n) // player ids in heap order
	heapPos := make([]int, n) // player -> position in heapArr
	less := func(p, q int) bool {
		gp, gq := r.props[p].gain, r.props[q].gain
		if gp != gq {
			return gp > gq
		}
		return p < q
	}
	swap := func(a, b int) {
		heapArr[a], heapArr[b] = heapArr[b], heapArr[a]
		heapPos[heapArr[a]] = a
		heapPos[heapArr[b]] = b
	}
	down := func(pos int) {
		for {
			c := 2*pos + 1
			if c >= n {
				return
			}
			if c+1 < n && less(heapArr[c+1], heapArr[c]) {
				c++
			}
			if !less(heapArr[c], heapArr[pos]) {
				return
			}
			swap(pos, c)
			pos = c
		}
	}
	up := func(pos int) {
		for pos > 0 {
			parent := (pos - 1) / 2
			if !less(heapArr[pos], heapArr[parent]) {
				return
			}
			swap(pos, parent)
			pos = parent
		}
	}

	// seen/stamp dedupe the adapter's affected list into r.pending; the
	// parallel refresh fills r.scratch through the premade fillFn so
	// each heap key still changes one at a time (a batched overwrite
	// would break the sift invariant).
	r.pending = make([]int, 0, n)
	r.scratch = make([]proposal[D], 0, n)
	seen := make([]int, n)
	stamp := 0

	for r.st.Updates < r.opt.MaxUpdates {
		r.st.Rounds++
		evaluated := len(r.pending)
		if r.st.Rounds == 1 {
			evaluated = n
			r.scanAll()
			for j := 0; j < n; j++ {
				heapArr[j] = j
				heapPos[j] = j
			}
			for pos := n/2 - 1; pos >= 0; pos-- {
				down(pos)
			}
		} else {
			r.scratch = r.scratch[:len(r.pending)]
			r.forEach(len(r.pending), r.fillFn)
			for idx, j := range r.pending {
				r.props[j] = r.scratch[idx]
				pos := heapPos[j]
				up(pos)
				down(heapPos[j])
			}
		}
		winner := heapArr[0]
		if !(r.props[winner].gain > r.opt.Epsilon) {
			r.st.Converged = true
			r.st.Frozen = r.countFrozen()
			r.traceRound(-1, 0, evaluated)
			return
		}
		d := r.props[winner].d
		winnerGain := r.props[winner].gain
		stamp++
		r.pending = r.pending[:0]
		r.pending = append(r.pending, winner)
		seen[winner] = stamp
		for _, q := range loc.Affected(winner, d) {
			if q >= 0 && q < n && seen[q] != stamp {
				seen[q] = stamp
				r.pending = append(r.pending, q)
			}
		}
		r.a.Apply(winner, d)
		r.moves[winner]++
		r.st.Updates++
		r.traceRound(winner, winnerGain, evaluated)
	}
	r.st.Frozen = r.countFrozen()
}

// roundRobinFullScan evaluates every eligible player in index order each
// round, committing improvements immediately.
func (r *runner[D]) roundRobinFullScan() {
	for r.st.Updates < r.opt.MaxUpdates {
		r.st.Rounds++
		moved := false
		evaluated := 0
		for j := 0; j < r.n && r.st.Updates < r.opt.MaxUpdates; j++ {
			if !r.eligible(j) {
				continue
			}
			d, benefit, cur := r.a.Best(j)
			r.evals.Add(1)
			evaluated++
			if benefit-cur > r.opt.Epsilon {
				r.a.Apply(j, d)
				r.moves[j]++
				r.st.Updates++
				moved = true
			}
		}
		if !moved {
			r.st.Converged = true
			r.st.Frozen = r.countFrozen()
			r.traceRound(-1, 0, evaluated)
			return
		}
		r.traceRound(-1, 0, evaluated)
	}
	r.st.Frozen = r.countFrozen()
}

// roundRobinDirty skips players whose payoff landscape has not changed
// since their last (non-improving) evaluation. A skipped player would
// have re-evaluated to the same non-improving proposal, so the commit
// sequence, Rounds and Updates match the full scan exactly.
func (r *runner[D]) roundRobinDirty(loc Localized[D]) {
	dirty := make([]bool, r.n)
	for j := range dirty {
		dirty[j] = true
	}
	for r.st.Updates < r.opt.MaxUpdates {
		r.st.Rounds++
		moved := false
		evaluated := 0
		for j := 0; j < r.n && r.st.Updates < r.opt.MaxUpdates; j++ {
			if !r.eligible(j) || !dirty[j] {
				continue
			}
			d, benefit, cur := r.a.Best(j)
			r.evals.Add(1)
			evaluated++
			if benefit-cur > r.opt.Epsilon {
				for _, q := range loc.Affected(j, d) {
					if q >= 0 && q < r.n {
						dirty[q] = true
					}
				}
				r.a.Apply(j, d)
				r.moves[j]++
				r.st.Updates++
				moved = true
			}
			// j just evaluated (and, on a commit, moved to its own best
			// response): clean either way until someone else perturbs it.
			dirty[j] = false
		}
		if !moved {
			r.st.Converged = true
			r.st.Frozen = r.countFrozen()
			r.traceRound(-1, 0, evaluated)
			return
		}
		r.traceRound(-1, 0, evaluated)
	}
	r.st.Frozen = r.countFrozen()
}
