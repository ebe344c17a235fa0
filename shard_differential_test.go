package idde

import (
	"reflect"
	"runtime"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/shard"
)

// The end-to-end differential suite for the geo-sharded solver: a
// single-tile sharded solve must be bit-identical to the global path,
// and multi-tile solves must be deterministic and worker-count
// independent (tiles write disjoint state and merge in tile order; the
// halo exchange runs in fixed tile order).

// shardGrid is the Table 2-flavoured parameter grid the suite runs.
var shardGrid = []struct {
	p    experiment.Params
	seed uint64
}{
	{experiment.Params{N: 12, M: 90, K: 5, Density: 1.0}, 5},
	{experiment.Params{N: 20, M: 150, K: 6, Density: 1.0}, 2022},
	{experiment.Params{N: 25, M: 260, K: 5, Density: 1.0}, 21},
}

// TestShardedSolveSingleTileMatchesGlobal: Shards=1 runs the identical
// arithmetic through the identical code paths (one tile holding every
// server and user, no halo, reconcile finds nothing to add), so the
// whole fingerprint — equilibrium allocation, game stats, replica
// sequence, objectives — must equal the global solver's exactly. Only
// GainEvaluations may grow: the reconcile pass's seed scan re-proves
// that no candidate is left.
func TestShardedSolveSingleTileMatchesGlobal(t *testing.T) {
	for _, g := range shardGrid {
		in, err := experiment.BuildInstance(g.p, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		base := fingerprint(core.Solve(in, core.DefaultOptions()))
		opt := core.DefaultOptions()
		opt.Shards = 1
		res := core.Solve(in, opt)
		if res.Shard == nil || res.Shard.Tiles != 1 {
			t.Fatalf("%v: sharded solve reported no shard stats or wrong tile count: %+v", g.p, res.Shard)
		}
		if res.Shard.HaloUsers != 0 || res.Shard.ReconcileReplicas != 0 {
			t.Fatalf("%v: single tile must have no halo and an empty reconcile: %+v", g.p, *res.Shard)
		}
		got := fingerprint(res)
		if got.Evaluations < base.Evaluations {
			t.Fatalf("%v: sharded solve evaluated less than global (%d < %d)?", g.p, got.Evaluations, base.Evaluations)
		}
		got.Evaluations = base.Evaluations // reconcile seed scan re-proves emptiness
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("%v: Shards=1 diverges from global:\n%+v\nvs\n%+v", g.p, got, base)
		}
	}
}

// TestShardedSolveMultiTileValidAndDeterministic: Shards=4 must produce
// a valid strategy (coverage and capacity constraints hold) and the
// exact same result on repeated runs.
func TestShardedSolveMultiTileValidAndDeterministic(t *testing.T) {
	for _, g := range shardGrid {
		in, err := experiment.BuildInstance(g.p, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.Shards = 4
		base := core.Solve(in, opt)
		if err := in.Check(base.Strategy); err != nil {
			t.Fatalf("%v: sharded strategy invalid: %v", g.p, err)
		}
		if base.Shard.Tiles != 4 {
			t.Fatalf("%v: got %d tiles, want 4", g.p, base.Shard.Tiles)
		}
		if base.AvgRate <= 0 {
			t.Fatalf("%v: non-positive average rate", g.p)
		}
		again := core.Solve(in, opt)
		if !reflect.DeepEqual(fingerprint(again), fingerprint(base)) ||
			!reflect.DeepEqual(*again.Shard, *base.Shard) {
			t.Fatalf("%v: repeated sharded solve diverged", g.p)
		}
	}
}

// TestShardedSolveGomaxprocsInvariance pins the worker-count
// independence of a 4-tile solve: tile workers write disjoint slots
// merged in tile order, each tile game runs on its worker's goroutine,
// and the halo exchange is sequential in tile order — so the
// full fingerprint plus the shard stats must be identical under
// GOMAXPROCS ∈ {1, 2, 8}.
func TestShardedSolveGomaxprocsInvariance(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 20, M: 240, K: 6, Density: 1.0}, 2022)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Shards = 4

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base solveFingerprint
	var baseShard shard.Stats
	for gi, g := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(g)
		res := core.Solve(in, opt)
		fp := fingerprint(res)
		if gi == 0 {
			base, baseShard = fp, *res.Shard
			continue
		}
		if !reflect.DeepEqual(fp, base) {
			t.Fatalf("GOMAXPROCS=%d sharded solve diverges:\n%+v\nvs\n%+v", g, fp, base)
		}
		if *res.Shard != baseShard {
			t.Fatalf("GOMAXPROCS=%d shard stats diverge: %+v vs %+v", g, *res.Shard, baseShard)
		}
	}
}

// TestShardedSolveWorkerCapInvariance: the tile-worker cap, which is
// GOMAXPROCS, must not change the outcome of shard.Solve when it is
// called directly — below the tile count (1, 2) and above it (5).
func TestShardedSolveWorkerCapInvariance(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 16, M: 120, K: 5, Density: 1.0}, 7)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base *shard.Result
	for _, w := range []int{1, 2, 5} {
		runtime.GOMAXPROCS(w)
		res := shard.Solve(in, shard.Config{Tiles: 4})
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Alloc, base.Alloc) ||
			!reflect.DeepEqual(res.Delivery, base.Delivery) ||
			res.AvgRate != base.AvgRate || res.Phase1 != base.Phase1 ||
			res.Stats != base.Stats {
			t.Fatalf("worker cap %d: sharded solve diverged from cap 1", w)
		}
	}
}
