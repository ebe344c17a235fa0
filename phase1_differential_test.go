package idde

import (
	"math"
	"reflect"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/game"
)

// The end-to-end differential suite for the Phase 1 performance work:
// the optimized engine (incremental interference aggregates + dirty-set
// scheduling) must reproduce the literal-Algorithm-1 reference across
// the Table 2 experiment grid — same equilibrium allocation, same
// delivery profile, same Theorem 4 accounting — so every figure CSV is
// unchanged by the optimization.

// sampledParams picks the first, middle and last x value of each Table 2
// set: enough to cover every varying parameter without a full sweep.
func sampledParams(t *testing.T) []experiment.Params {
	t.Helper()
	var ps []experiment.Params
	for id := 1; id <= 4; id++ {
		set, err := experiment.SetByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, xi := range []int{0, len(set.Values) / 2, len(set.Values) - 1} {
			ps = append(ps, set.ParamsAt(set.Values[xi]))
		}
	}
	return ps
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// TestSolveOptimizedMatchesReference compares core.Solve under the
// default (aggregates + dirty-set) configuration against
// core.ReferenceOptions (naive interference + full-scan rounds) on the
// Table 2 grid. The committed dynamics are designed to be identical:
// the dirty-set scheduler only skips provably-unchanged proposals and
// the aggregate cells are maintained drift-free (removals recompute the
// fold), so the equilibrium, the delivery profile and the
// Rounds/Updates/Converged/Frozen stats must match exactly; only
// Evaluations (the point of the optimization) and last-ulp rounding in
// the aggregated rate objective may differ.
func TestSolveOptimizedMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential sweep")
	}
	for _, p := range sampledParams(t) {
		in, err := experiment.BuildInstance(p, 2022)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		opt := core.Solve(in, core.DefaultOptions())
		ref := core.Solve(in, core.ReferenceOptions())

		if !reflect.DeepEqual(opt.Strategy.Alloc, ref.Strategy.Alloc) {
			t.Fatalf("%v: equilibrium allocations diverge", p)
		}
		if !reflect.DeepEqual(opt.Strategy.Delivery, ref.Strategy.Delivery) {
			t.Fatalf("%v: delivery profiles diverge", p)
		}
		if opt.Replicas != ref.Replicas {
			t.Fatalf("%v: replica counts diverge: %d vs %d", p, opt.Replicas, ref.Replicas)
		}
		if opt.Phase1.Rounds != ref.Phase1.Rounds || opt.Phase1.Updates != ref.Phase1.Updates ||
			opt.Phase1.Converged != ref.Phase1.Converged || opt.Phase1.Frozen != ref.Phase1.Frozen {
			t.Fatalf("%v: Phase 1 stats diverge: opt %+v ref %+v", p, opt.Phase1, ref.Phase1)
		}
		if opt.Phase1.Evaluations > ref.Phase1.Evaluations {
			t.Fatalf("%v: dirty-set evaluated more than the full scan: %d vs %d",
				p, opt.Phase1.Evaluations, ref.Phase1.Evaluations)
		}
		if d := relDiff(float64(opt.AvgRate), float64(ref.AvgRate)); d > 1e-9 {
			t.Fatalf("%v: AvgRate diverges beyond rounding: %g vs %g (rel %g)",
				p, opt.AvgRate, ref.AvgRate, d)
		}
		if d := relDiff(float64(opt.AvgLatency), float64(ref.AvgLatency)); d > 1e-9 {
			t.Fatalf("%v: AvgLatency diverges beyond rounding: %g vs %g (rel %g)",
				p, opt.AvgLatency, ref.AvgLatency, d)
		}
	}
}

// TestSolveDirtySetMatchesFullScanExactly isolates the scheduling half
// of the optimization: with the same (aggregate) ledger on both sides,
// dirty-set and full-scan rounds share every floating-point operation
// that reaches a commit, so the entire Result except Evaluations and
// wall-clock must be bit-identical.
func TestSolveDirtySetMatchesFullScanExactly(t *testing.T) {
	for _, p := range []experiment.Params{
		{N: 10, M: 60, K: 4, Density: 1.0},
		{N: 30, M: 200, K: 5, Density: 1.0},
		{N: 20, M: 120, K: 5, Density: 2.0},
	} {
		in, err := experiment.BuildInstance(p, 7)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		dirty := core.Solve(in, core.DefaultOptions())
		full := core.DefaultOptions()
		full.Game.FullScan = true
		ref := core.Solve(in, full)

		if !reflect.DeepEqual(dirty.Strategy, ref.Strategy) {
			t.Fatalf("%v: strategies diverge between dirty-set and full scan", p)
		}
		if dirty.AvgRate != ref.AvgRate || dirty.AvgLatency != ref.AvgLatency {
			t.Fatalf("%v: objectives diverge: (%v,%v) vs (%v,%v)",
				p, dirty.AvgRate, dirty.AvgLatency, ref.AvgRate, ref.AvgLatency)
		}
		if dirty.Phase1.Rounds != ref.Phase1.Rounds || dirty.Phase1.Updates != ref.Phase1.Updates ||
			dirty.Phase1.Converged != ref.Phase1.Converged || dirty.Phase1.Frozen != ref.Phase1.Frozen {
			t.Fatalf("%v: Phase 1 stats diverge: %+v vs %+v", p, dirty.Phase1, ref.Phase1)
		}
	}
}

// TestSolveRoundRobinDirtyMatchesFullScan covers the ablation policy at
// the solve level too.
func TestSolveRoundRobinDirtyMatchesFullScan(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 20, M: 150, K: 5, Density: 1.0}, 11)
	if err != nil {
		t.Fatal(err)
	}
	g := game.DefaultOptions()
	g.Policy = game.RoundRobin
	dirty := core.Solve(in, core.Options{Game: g})
	gf := g
	gf.FullScan = true
	ref := core.Solve(in, core.Options{Game: gf})
	if !reflect.DeepEqual(dirty.Strategy, ref.Strategy) {
		t.Fatal("round-robin dirty-set and full scan strategies diverge")
	}
	if dirty.Phase1.Updates != ref.Phase1.Updates || dirty.Phase1.Rounds != ref.Phase1.Rounds {
		t.Fatalf("round-robin stats diverge: %+v vs %+v", dirty.Phase1, ref.Phase1)
	}
}

// TestPlacementLazyMatchesGreedyAtScale is the Phase 2 bench-guard at
// the default experiment scale (N=30, M=200, K=5): the CELF evaluator
// must commit the identical replica sequence with the identical total
// gain while evaluating strictly fewer candidates than the literal
// re-scan loop.
func TestPlacementLazyMatchesGreedyAtScale(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 30, M: 200, K: 5, Density: 1.0}, 2022)
	if err != nil {
		t.Fatal(err)
	}
	alloc, _ := core.SolvePhase1(in, core.DefaultOptions())

	dLazy, resLazy := core.SolveDeliveryOpt(in, alloc, core.Options{})
	dNaive, resNaive := core.SolveDeliveryOpt(in, alloc, core.Options{NaiveGreedy: true})

	if !reflect.DeepEqual(resLazy.Chosen, resNaive.Chosen) {
		t.Fatalf("lazy and naive greedy chose different replica sequences:\nlazy  %v\nnaive %v",
			resLazy.Chosen, resNaive.Chosen)
	}
	if !reflect.DeepEqual(dLazy, dNaive) {
		t.Fatal("delivery profiles diverge")
	}
	if resLazy.TotalGain != resNaive.TotalGain {
		t.Fatalf("total gains diverge: %g vs %g", resLazy.TotalGain, resNaive.TotalGain)
	}
	if resLazy.Evaluations >= resNaive.Evaluations {
		t.Fatalf("CELF did not save oracle calls: lazy %d vs naive %d",
			resLazy.Evaluations, resNaive.Evaluations)
	}
}
