package shard

import (
	"reflect"
	"testing"

	"idde/internal/placement"
)

// TestReconcileParallelSeedScanMatchesSequential is the regression test
// for the reconcile pass's oracle replay: reconcile re-commits the merged
// tile replicas before its seed scan, and with the parallel scan forced
// on (threshold 1) that scan evaluates gains concurrently right after the
// replay. The oracle must come out of the replay with every cohort sum
// materialized, so the scan only reads — `go test -race` at GOMAXPROCS ≥
// 2 reports any write — and the solve must match the sequential-seed
// solve exactly. CohortBatch is set because it once selected an oracle
// whose replay left sums deferred; it no longer has any effect.
func TestReconcileParallelSeedScanMatchesSequential(t *testing.T) {
	in := buildInstance(t, params{N: 24, M: 300, K: 5}, 21)
	par := Solve(in, Config{
		Tiles:       4,
		Placement:   placement.NewOptions(placement.Options{Parallel: true, ParallelThreshold: 1}),
		CohortBatch: true,
	})
	seq := Solve(in, Config{
		Tiles:     4,
		Placement: placement.NewOptions(placement.Options{}),
	})
	if par.Stats.ReconcileReplicas == 0 && par.Replicas == 0 {
		t.Fatal("solve placed no replica: the replay under test never ran")
	}
	if !reflect.DeepEqual(par.Delivery, seq.Delivery) {
		t.Fatal("parallel-seed solve's delivery profile diverges from the sequential-seed solve's")
	}
	if par.LatencyReduction != seq.LatencyReduction {
		t.Fatalf("latency reduction diverges: %v (parallel seeds) vs %v (sequential)",
			par.LatencyReduction, seq.LatencyReduction)
	}
}
