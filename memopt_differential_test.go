package idde

import (
	"reflect"
	"runtime"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/units"
)

// The end-to-end differential suite for the large-N memory work: the
// cohort Phase 2 oracle's deferred folds must reproduce the reference
// results exactly — not approximately — across allocation, replica
// sequence and every reported stat, at every GOMAXPROCS.

// deepenBudgets raises every server's storage capacity to at least
// eight mean item sizes, the regime where the greedy loop commits many
// replicas per item and the cohort oracle's deferred folds actually
// batch (shallow budgets commit an item at most once or twice per
// server, hiding collapse bugs).
func deepenBudgets(in *model.Instance) {
	var total units.MegaBytes
	for _, it := range in.Wl.Items {
		total += it.Size
	}
	deep := 8 * total / units.MegaBytes(len(in.Wl.Items))
	for i := range in.Wl.Capacity {
		if in.Wl.Capacity[i] < deep {
			in.Wl.Capacity[i] = deep
		}
	}
}

// TestDeliveryBatchOracleOnDeepBudgets pins the cohort oracle's
// Commit batching on deep-budget instances (storage ≥ 8× mean item
// size): all four oracle×engine combinations must commit the identical
// replica sequence, delivery profile and bit-identical total gain.
func TestDeliveryBatchOracleOnDeepBudgets(t *testing.T) {
	for _, seed := range []uint64{5, 21, 2022} {
		in, err := experiment.BuildInstance(experiment.Params{N: 15, M: 200, K: 6, Density: 1.0}, seed)
		if err != nil {
			t.Fatal(err)
		}
		deepenBudgets(in)
		alloc, _ := core.SolvePhase1(in, core.DefaultOptions())
		checkCombosAgree(t, "deep-budget", in, alloc)
	}
}

// solveFingerprint is the worker-count-independent slice of a
// core.Result: everything except wall-clock.
type solveFingerprint struct {
	Alloc       model.Allocation
	Delivery    *model.Delivery
	Phase1      interface{}
	Replicas    int
	Evaluations int
	Reduction   units.Seconds
	AvgRate     units.Rate
	AvgLatency  units.Seconds
}

func fingerprint(res *core.Result) solveFingerprint {
	return solveFingerprint{
		Alloc:       res.Strategy.Alloc,
		Delivery:    res.Strategy.Delivery,
		Phase1:      res.Phase1,
		Replicas:    res.Replicas,
		Evaluations: res.GainEvaluations,
		Reduction:   res.LatencyReduction,
		AvgRate:     res.AvgRate,
		AvgLatency:  res.AvgLatency,
	}
}

// TestSolveGomaxprocsInvariance pins the global solve's independence
// of the worker count: both phases run on the solving goroutine, so the
// full solve — equilibrium allocation, game stats, replica sequence and
// every objective — must be exactly identical under GOMAXPROCS ∈
// {1, 2, 8}. The instance build (the CSR gain rows) and the sharded
// solver's tile workers do depend on GOMAXPROCS; this sweep is the
// global path's guard should a fan-out return.
func TestSolveGomaxprocsInvariance(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 20, M: 240, K: 6, Density: 1.0}, 2022)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base solveFingerprint
	for gi, g := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(g)
		fp := fingerprint(core.Solve(in, opt))
		if gi == 0 {
			base = fp
			continue
		}
		if !reflect.DeepEqual(fp, base) {
			t.Fatalf("GOMAXPROCS=%d solve diverges from GOMAXPROCS=1:\n%+v\nvs\n%+v", g, fp, base)
		}
	}
}
