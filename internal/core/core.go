// Package core implements IDDE-G, the paper's proposed approach
// (Algorithm 1): a two-phase heuristic for the Interference-aware Data
// Delivery at the network Edge problem.
//
// Phase 1 plays the IDDE-U game — every user repeatedly best-responds to
// the benefit function of Eq. (12) over its decision set δ_j (every
// channel of every covering server), with one winning update committed
// per round — until a Nash equilibrium is reached. Theorem 3 shows the
// game is an (ordinal) potential game, so the dynamics terminate;
// Theorem 4 bounds the number of committed updates.
//
// Phase 2 greedily builds the data delivery profile: it repeatedly
// commits the decision σ_{i,k} with the highest ratio of total latency
// reduction over consumed storage (Eq. 17), subject to the Eq. (6)
// reservations, until no feasible decision reduces latency. Theorems 6–7
// bound the gap to the optimal delivery profile.
package core

import (
	"time"

	"idde/internal/game"
	"idde/internal/model"
	"idde/internal/obs"
	"idde/internal/placement"
	"idde/internal/shard"
	"idde/internal/units"
)

// Options tunes IDDE-G.
type Options struct {
	// Game configures the Phase 1 best-response dynamics. The zero
	// value is replaced by game.DefaultOptions(); an intentionally
	// all-zero configuration must carry game.Options.Set (see
	// game.NewOptions) to be preserved.
	Game game.Options
	// NaiveGreedy switches Phase 2 from the lazy (CELF) evaluator to
	// the literal re-scan-everything loop of Algorithm 1; the output is
	// identical, only the oracle-call count differs. Used for
	// differential tests and the ablation bench.
	NaiveGreedy bool
	// NaiveInterference switches the Phase 1 ledger to the O(occupancy)
	// reference scan for the Eq. 2 inter-cell term instead of the
	// incremental aggregates. Results agree up to floating-point
	// summation order; ReferenceOptions sets it, and the differential
	// suites and the root benches run it as the reference.
	NaiveInterference bool
	// NaiveLatency switches the Phase 2 oracle from the cohort oracle
	// (model.CohortLatencyState) to the per-request LatencyState walk.
	// Gains, totals and committed replica sequences are bit-identical;
	// only the evaluation cost differs. ReferenceOptions sets it, and
	// the differential suites and the root benches run it as the
	// reference.
	NaiveLatency bool
	// CohortBatch is ignored: the Commit-batching cohort oracle is the
	// only optimized Phase 2 oracle, and the CELF engine always tracks
	// staleness per item.
	//
	// Deprecated: has no effect. It stays declared because the idbench
	// benchmark module reads it.
	CohortBatch bool
	// AggRowBudget is ignored: the Phase 1 ledger builds each aggregate
	// row once and keeps it.
	//
	// Deprecated: has no effect. It stays declared because the idbench
	// benchmark module reads it.
	AggRowBudget int
	// Placement configures the Phase 2 greedy engine (parallel seed
	// scan). The zero value is replaced by placement.DefaultOptions();
	// an intentionally all-zero configuration must carry
	// placement.Options.Set (see placement.NewOptions) to be preserved.
	Placement placement.Options
	// DenseInstance solves on the dense-materialized sibling of the
	// instance (model.Instance.Densified): every gain read hits an N×M
	// matrix instead of the CSR rows. The arithmetic is identical — the
	// sparse layout recomputes out-of-support gains exactly — so results
	// are bit-identical; this is the reference mode the sparse-vs-dense
	// differential suite pins, and a memory-for-speed escape hatch on
	// small instances.
	DenseInstance bool
	// NoSweepSkip disables the sharded halo-exchange's clean-tile skip
	// (shard.Config.NoSweepSkip). Ignored when Shards is 0.
	NoSweepSkip bool
	// Shards switches Solve to the geo-sharded solver (internal/shard):
	// the instance is partitioned into that many coverage-connected
	// tiles, both phases run per tile on their own worker and ledger,
	// and a bounded deterministic halo-exchange plus a global CELF
	// reconcile pass stitch the boundary back together. 0 (the default)
	// keeps the global path; Shards=1 is bit-identical to it (pinned by
	// shard_differential_test.go). Multi-tile results are deterministic
	// and GOMAXPROCS-independent but approximate near tile boundaries.
	Shards int
	// ShardHaloRounds caps the halo-exchange sweeps of a sharded solve
	// (0 = shard.DefaultHaloRounds, negative = no exchange). Ignored
	// when Shards is 0.
	ShardHaloRounds int
	// Obs receives the solver's telemetry and is threaded into both
	// phase engines: phase spans, per-round / per-commit trace events,
	// counters cross-wired from game.Stats and placement.Result, and
	// the Ledger's AggMemStats gauges. nil (the default) disables all
	// of it; the solution is identical either way. The scope set here
	// wins over any scope carried inside Game/Placement.
	Obs *obs.Scope
	// TracePotential additionally evaluates the Eq. 13 potential
	// function after every Phase 1 round and attaches it to the round's
	// trace event. Potential is O(M²)-ish per evaluation, so this is
	// for convergence studies on Table 2-sized instances; it is ignored
	// unless Obs has a tracer attached.
	TracePotential bool
}

// DefaultOptions returns the configuration used in the experiments.
func DefaultOptions() Options {
	return Options{Game: game.DefaultOptions()}
}

// ReferenceOptions returns the unoptimized literal-Algorithm-1
// configuration: full-scan rounds (no dirty-set scheduling) over the
// naive O(occupancy) interference evaluator, and the literal Phase 2
// argmax re-scan over the per-request latency walk with sequential
// seeding. It is behavior-identical to DefaultOptions up to
// floating-point summation order and is the reference the differential
// suites and the root benches compare against.
func ReferenceOptions() Options {
	g := game.DefaultOptions()
	g.FullScan = true
	return Options{
		Game:              g,
		NaiveInterference: true,
		NaiveGreedy:       true,
		NaiveLatency:      true,
		Placement:         placement.NewOptions(placement.Options{}),
	}
}

// Result carries the strategy and the instrumentation the theorems talk
// about.
type Result struct {
	Strategy model.Strategy

	// AvgRate is objective #1 (Eq. 5) under the strategy.
	AvgRate units.Rate
	// AvgLatency is objective #2 (Eq. 9) under the strategy.
	AvgLatency units.Seconds

	// Phase1 reports the game dynamics: Updates is the iteration count
	// bounded by Theorem 4.
	Phase1 game.Stats
	// Replicas is the number of committed delivery decisions.
	Replicas int
	// GainEvaluations counts Phase 2 oracle calls (CELF efficiency).
	GainEvaluations int
	// LatencyReduction is ΔL(σ) of Eq. 25: total latency saved versus
	// all-cloud delivery. For sharded solves it sums tile-local and
	// reconcile gains (exact at Shards=1; see shard.Result).
	LatencyReduction units.Seconds

	// Shard carries the sharding accounting of a Shards>0 solve: tile
	// balance, frontier/halo sizes, sweep convergence and the reconcile
	// pass. nil for the global path.
	Shard *shard.Stats

	Phase1Time, Phase2Time time.Duration
}

// SolvePhase1 runs Phase 1 alone — the IDDE-U best-response game from
// the all-unallocated profile — and returns the equilibrium allocation
// with the dynamics stats. Tests and benches use it to check and time
// Phase 1 without Phase 2; Solve goes through the same path.
func SolvePhase1(in *model.Instance, opt Options) (model.Allocation, game.Stats) {
	if opt.DenseInstance {
		in = in.Densified()
	}
	ledger, st := runPhase1(in, opt)
	return ledger.Alloc(), st
}

// runPhase1 plays the Phase 1 game on a fresh ledger inside the phase1
// span, publishes the ledger's memory gauges and returns the ledger at
// equilibrium with the dynamics stats.
func runPhase1(in *model.Instance, opt Options) (*model.Ledger, game.Stats) {
	opt.Game = opt.Game.Resolve()
	sc := scopeOf(opt)
	opt.Game.Obs = sc
	ledger := model.NewLedger(in, model.NewAllocation(in.M()))
	if opt.NaiveInterference {
		ledger.SetNaiveInterference(true)
	}
	adapter := &allocGame{in: in, l: ledger, tracePotential: opt.TracePotential}
	sc.Begin("solve", "phase1", nil)
	st := game.Run[model.Alloc](adapter, opt.Game)
	sc.End("solve", "phase1")
	publishAggStats(sc, ledger)
	return ledger, st
}

// scopeOf resolves the solver-level telemetry scope: Options.Obs wins,
// else a scope already carried by the resolved game options (set by a
// caller that configured the engine directly).
func scopeOf(opt Options) *obs.Scope {
	if opt.Obs != nil {
		return opt.Obs
	}
	return opt.Game.Obs
}

// publishAggStats snapshots the ledger's aggregate-row memory
// accounting (model.AggMemStats) into gauges and, when tracing, an
// instant event.
func publishAggStats(sc *obs.Scope, l *model.Ledger) {
	if !sc.Enabled() {
		return
	}
	st := l.AggMemStats()
	sc.SetGauge("agg_resident_rows", float64(st.ResidentRows))
	sc.SetGauge("agg_arena_bytes", float64(st.ArenaBytes))
	sc.SetGauge("benefit_memo_bytes", float64(st.MemoBytes))
	if !sc.Tracing() {
		return
	}
	sc.Instant("solve", "agg_mem", map[string]any{
		"resident_rows": st.ResidentRows,
		"arena_bytes":   st.ArenaBytes,
		"memo_bytes":    st.MemoBytes,
	})
}

// Solve runs IDDE-G on the instance.
func Solve(in *model.Instance, opt Options) *Result {
	if opt.DenseInstance {
		in = in.Densified()
	}
	if opt.Shards > 0 {
		return solveSharded(in, opt)
	}
	sc := scopeOf(opt)
	res := &Result{}

	// Phase 1 — IDDE-U game for the user allocation profile.
	t0 := time.Now()
	ledger, st := runPhase1(in, opt)
	res.Phase1 = st
	alloc := ledger.Alloc()
	res.Phase1Time = time.Since(t0)

	// Phase 2 — greedy data delivery profile.
	t1 := time.Now()
	delivery, pres := solveDelivery(in, alloc, opt)
	res.Phase2Time = time.Since(t1)

	res.Strategy = model.Strategy{Alloc: alloc, Delivery: delivery}
	res.Replicas = len(pres.Chosen)
	res.GainEvaluations = pres.Evaluations
	res.LatencyReduction = units.Seconds(pres.TotalGain)
	res.AvgRate = ledger.AvgRate()
	res.AvgLatency = in.AvgLatency(alloc, delivery)
	if sc.Enabled() {
		// Cross-wire the Result instrumentation; wall-clock stays out
		// of the trace (logical ticks only) but is fine in gauges.
		sc.Count("solve_runs_total", 1)
		sc.Count("solve_replicas_total", int64(res.Replicas))
		sc.SetGauge("solve_last_avg_rate_mbps", float64(res.AvgRate))
		sc.SetGauge("solve_last_avg_latency_ms", res.AvgLatency.Millis())
		sc.SetGauge("solve_last_latency_reduction_s", float64(res.LatencyReduction))
		sc.SetGauge("solve_last_phase1_ms", float64(res.Phase1Time.Milliseconds()))
		sc.SetGauge("solve_last_phase2_ms", float64(res.Phase2Time.Milliseconds()))
	}
	return res
}

// SolveDelivery exposes Phase 2 alone for a caller-supplied allocation
// (the CDP baseline reuses it with its own allocation rule). The naive
// flag toggles the greedy engine only (literal re-scan vs CELF); both
// run the cohort oracle. Use SolveDeliveryOpt for full oracle/engine
// control.
func SolveDelivery(in *model.Instance, alloc model.Allocation, naive bool) (*model.Delivery, placement.Result) {
	return solveDelivery(in, alloc, Options{NaiveGreedy: naive})
}

// SolveDeliveryOpt exposes Phase 2 alone with the full Options surface:
// oracle choice (NaiveLatency), greedy engine (NaiveGreedy) and seed
// scan configuration (Placement).
func SolveDeliveryOpt(in *model.Instance, alloc model.Allocation, opt Options) (*model.Delivery, placement.Result) {
	return solveDelivery(in, alloc, opt)
}

// solveDelivery runs Phase 2 over every server through the shared
// placement.Deliver driver inside the phase2 span.
func solveDelivery(in *model.Instance, alloc model.Allocation, opt Options) (*model.Delivery, placement.Result) {
	sc := scopeOf(opt)
	eng := opt.Placement.Resolve()
	if sc != nil {
		eng.Obs = sc
	}
	d := model.NewDelivery(in.N(), in.K())
	sc.Begin("solve", "phase2", nil)
	pres := placement.Deliver(placement.DeliverySpec{
		In: in, Alloc: alloc, Delivery: d,
		NaiveLatency: opt.NaiveLatency, NaiveGreedy: opt.NaiveGreedy,
		Engine: eng,
	})
	sc.End("solve", "phase2")
	return d, pres
}
