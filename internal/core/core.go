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
	// summation order; used for differential tests, drift-sensitive
	// debugging and the perf baseline.
	NaiveInterference bool
	// NaiveLatency switches the Phase 2 oracle from the cohort-aggregated
	// suffix queries back to the per-request LatencyState walk. Gains
	// agree up to floating-point summation order and the committed
	// replica sequences are identical; used for differential tests and
	// the Phase 2 perf baseline.
	NaiveLatency bool
	// CohortBatch switches Phase 2 to the Commit-batching oracle
	// (model.BatchCohortLatencyState) and enables per-item staleness
	// epochs in the CELF engine (placement.Options.ItemLocalGains).
	// Gains, totals and committed replica sequences are bit-identical
	// to the default cohort oracle; memory drops from O(requests) to
	// O(cohorts) and deep replica budgets stop paying a per-Commit
	// suffix rebuild. Ignored when NaiveLatency is set (the two select
	// different oracles for the same slot).
	CohortBatch bool
	// AggRowBudget caps how many Phase 1 interference aggregate rows
	// stay resident at once (0 = unlimited). Evaluations against
	// non-resident receivers use a bit-identical per-cell fold, so the
	// equilibrium is unchanged; peak aggregate memory shrinks from
	// O(N²·K̄) toward O(budget·N) at the price of wall-clock on cold
	// receivers. See model.Ledger.SetAggRowBudget.
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
	// tiles, both phases run per tile on their own worker/ledger/arena,
	// and a bounded deterministic halo-exchange plus a global CELF
	// reconcile pass stitch the boundary back together. 0 (the default)
	// keeps the global path; Shards=1 is bit-identical to it (pinned by
	// shard_differential_test.go). Multi-tile results are deterministic
	// and GOMAXPROCS-independent but approximate near tile boundaries;
	// per-tile row budgets reuse AggRowBudget.
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
// floating-point summation order and serves as the differential-test
// and perf-baseline reference.
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

// resolveGameOptions replaces an unset zero-value game.Options with the
// defaults. Explicitly configured options — even all-zero ones, which
// carry game.Options.Set — pass through verbatim. A telemetry scope is
// not configuration: it is stripped before the zero-value comparison
// and re-attached, so Options{Obs: sc} still resolves to the defaults.
func resolveGameOptions(o game.Options) game.Options {
	sc := o.Obs
	o.Obs = nil
	if o == (game.Options{}) {
		o = game.DefaultOptions()
	}
	o.Obs = sc
	return o
}

// resolvePlacementOptions is the placement.Options analogue.
func resolvePlacementOptions(o placement.Options) placement.Options {
	sc := o.Obs
	o.Obs = nil
	if o == (placement.Options{}) {
		o = placement.DefaultOptions()
	}
	o.Obs = sc
	return o
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
// with the dynamics stats. Perf baselines use it to time Phase 1
// without Phase 2 noise; Solve goes through the same path.
func SolvePhase1(in *model.Instance, opt Options) (model.Allocation, game.Stats) {
	if opt.DenseInstance {
		in = in.Densified()
	}
	opt.Game = resolveGameOptions(opt.Game)
	sc := scopeOf(opt)
	opt.Game.Obs = sc
	ledger := model.NewLedger(in, model.NewAllocation(in.M()))
	if opt.NaiveInterference {
		ledger.SetNaiveInterference(true)
	}
	if opt.AggRowBudget > 0 {
		ledger.SetAggRowBudget(opt.AggRowBudget)
	}
	adapter := &allocGame{in: in, l: ledger, tracePotential: opt.TracePotential}
	sc.Begin("solve", "phase1", nil)
	st := game.Run[model.Alloc](adapter, opt.Game)
	sc.End("solve", "phase1")
	publishAggStats(sc, ledger)
	return ledger.Alloc(), st
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
// instant event. Called after Phase 1 returns — a quiescent point, as
// AggMemStats requires.
func publishAggStats(sc *obs.Scope, l *model.Ledger) {
	if !sc.Enabled() {
		return
	}
	st := l.AggMemStats()
	sc.SetGauge("agg_resident_rows", float64(st.ResidentRows))
	sc.SetGauge("agg_ever_built_rows", float64(st.EverBuiltRows))
	sc.SetGauge("agg_row_budget", float64(st.RowBudget))
	sc.SetGauge("agg_arena_bytes", float64(st.ArenaBytes))
	sc.SetGauge("agg_in_use_bytes", float64(st.InUseBytes))
	sc.SetGauge("agg_dense_equiv_bytes", float64(st.DenseEquivBytes))
	sc.SetGauge("benefit_memo_bytes", float64(st.MemoBytes))
	sc.Count("agg_evictions_total", st.Evictions)
	sc.Count("agg_fallback_evals_total", st.FallbackEvals)
	if !sc.Tracing() {
		return
	}
	sc.Instant("solve", "agg_mem", map[string]any{
		"resident_rows":     st.ResidentRows,
		"ever_built_rows":   st.EverBuiltRows,
		"row_budget":        st.RowBudget,
		"arena_bytes":       st.ArenaBytes,
		"in_use_bytes":      st.InUseBytes,
		"dense_equiv_bytes": st.DenseEquivBytes,
		"evictions":         st.Evictions,
		"fallback_evals":    st.FallbackEvals,
		"memo_bytes":        st.MemoBytes,
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
	opt.Game = resolveGameOptions(opt.Game)
	sc := scopeOf(opt)
	opt.Game.Obs = sc
	res := &Result{}

	// Phase 1 — IDDE-U game for the user allocation profile.
	t0 := time.Now()
	ledger := model.NewLedger(in, model.NewAllocation(in.M()))
	if opt.NaiveInterference {
		ledger.SetNaiveInterference(true)
	}
	if opt.AggRowBudget > 0 {
		ledger.SetAggRowBudget(opt.AggRowBudget)
	}
	adapter := &allocGame{in: in, l: ledger, tracePotential: opt.TracePotential}
	sc.Begin("solve", "phase1", nil)
	res.Phase1 = game.Run[model.Alloc](adapter, opt.Game)
	sc.End("solve", "phase1")
	publishAggStats(sc, ledger)
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
// run the cohort oracle, so their gains — not just their sequences —
// match exactly. Use SolveDeliveryOpt for full oracle/engine control.
func SolveDelivery(in *model.Instance, alloc model.Allocation, naive bool) (*model.Delivery, placement.Result) {
	return solveDelivery(in, alloc, Options{NaiveGreedy: naive})
}

// SolveDeliveryOpt exposes Phase 2 alone with the full Options surface:
// oracle choice (NaiveLatency), greedy engine (NaiveGreedy) and seed
// scan configuration (Placement).
func SolveDeliveryOpt(in *model.Instance, alloc model.Allocation, opt Options) (*model.Delivery, placement.Result) {
	return solveDelivery(in, alloc, opt)
}

func solveDelivery(in *model.Instance, alloc model.Allocation, opt Options) (*model.Delivery, placement.Result) {
	oracle := &deliveryOracle{
		in: in,
		d:  model.NewDelivery(in.N(), in.K()),
	}
	switch {
	case opt.NaiveLatency:
		oracle.ls = model.NewLatencyState(in, alloc)
	case opt.CohortBatch:
		oracle.ls = model.NewBatchCohortLatencyState(in, alloc)
	default:
		oracle.ls = model.NewCohortLatencyState(in, alloc)
	}
	// Skip items nobody requests: their gain is identically zero, so
	// they can never be committed — no need to seed or re-scan them.
	requested := make([]bool, in.K())
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			requested[k] = true
		}
	}
	cands := make([]placement.Candidate, 0, in.N()*in.K())
	for i := 0; i < in.N(); i++ {
		for k := 0; k < in.K(); k++ {
			if !requested[k] {
				continue
			}
			cands = append(cands, placement.Candidate{Server: i, Item: k})
		}
	}
	sc := scopeOf(opt)
	sc.Begin("solve", "phase2", nil)
	var pres placement.Result
	if opt.NaiveGreedy {
		pres = placement.GreedyOpt(cands, oracle, placement.Options{Obs: sc})
	} else {
		popt := resolvePlacementOptions(opt.Placement)
		if sc != nil {
			popt.Obs = sc
		}
		if opt.CohortBatch && !opt.NaiveLatency {
			// The batch oracle's cohorts are partitioned by item, so a
			// Commit can only move gains of its own item: per-item
			// staleness epochs skip provably identical refreshes.
			popt.ItemLocalGains = true
		}
		pres = placement.LazyGreedyOpt(cands, oracle, popt)
	}
	sc.End("solve", "phase2")
	return oracle.d, pres
}

// deliveryOracle adapts the incremental latency state and the delivery
// profile to the placement engine.
type deliveryOracle struct {
	in *model.Instance
	ls model.DeliveryOracle
	d  *model.Delivery
}

func (o *deliveryOracle) Gain(c placement.Candidate) float64 {
	return float64(o.ls.GainOf(c.Server, c.Item))
}

func (o *deliveryOracle) Cost(c placement.Candidate) float64 {
	return float64(o.in.Wl.Items[c.Item].Size)
}

func (o *deliveryOracle) Feasible(c placement.Candidate) bool {
	if o.d.Placed(c.Server, c.Item) {
		return false
	}
	size := o.in.Wl.Items[c.Item].Size
	return o.d.Used(c.Server)+size <= o.in.Wl.Capacity[c.Server]
}

func (o *deliveryOracle) Commit(c placement.Candidate) float64 {
	o.d.Place(c.Server, c.Item, o.in.Wl.Items[c.Item].Size)
	return float64(o.ls.Commit(c.Server, c.Item))
}
