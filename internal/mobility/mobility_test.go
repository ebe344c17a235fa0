package mobility

import (
	"testing"

	"idde/internal/core"
	"idde/internal/geo"
	"idde/internal/model"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/workload"
)

func scenario(t *testing.T, n, m, k int, seed uint64) (*topology.Topology, *workload.Workload) {
	t.Helper()
	s := rng.New(seed)
	top, err := topology.Generate(topology.DefaultGen(n, m, 1.2), s.Split("top"))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	wl, err := workload.Generate(workload.DefaultGen(k), n, m, s.Split("wl"))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return top, wl
}

func iddegSolver(in *model.Instance) model.Strategy {
	return core.Solve(in, core.DefaultOptions()).Strategy
}

func TestSimulateEpochShape(t *testing.T) {
	top, wl := scenario(t, 12, 60, 4, 1)
	eps, err := Simulate(top, wl, iddegSolver, Config{
		Epochs: 4, EpochSeconds: 60, Speed: [2]float64{1, 3}, Pause: 0.1,
	}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 5 {
		t.Fatalf("epochs = %d", len(eps))
	}
	for i, ep := range eps {
		if ep.Epoch != i {
			t.Errorf("epoch %d labeled %d", i, ep.Epoch)
		}
		if ep.RateMBps <= 0 {
			t.Errorf("epoch %d: no rate", i)
		}
		if ep.LatencyMs < 0 {
			t.Errorf("epoch %d: negative latency", i)
		}
		if ep.Replicas <= 0 {
			t.Errorf("epoch %d: no replicas", i)
		}
	}
	// Epoch 0 has no predecessor, so no handovers or migration.
	if eps[0].Handover != 0 || eps[0].MigratedMB != 0 {
		t.Errorf("epoch 0 reports churn: %+v", eps[0])
	}
}

func TestMovementCausesChurn(t *testing.T) {
	top, wl := scenario(t, 12, 80, 4, 3)
	// Vehicle speeds over long epochs: users cross multiple cells, so
	// some handover must occur across 5 epochs.
	eps, err := Simulate(top, wl, iddegSolver, Config{
		Epochs: 5, EpochSeconds: 120, Speed: [2]float64{10, 20},
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	totalHandover := 0
	for _, ep := range eps[1:] {
		totalHandover += ep.Handover
	}
	if totalHandover == 0 {
		t.Error("fast movement produced zero handovers")
	}
}

func TestImmobileUsersNoChurn(t *testing.T) {
	top, wl := scenario(t, 10, 50, 3, 5)
	eps, err := Simulate(top, wl, iddegSolver, Config{
		Epochs: 3, EpochSeconds: 60, Speed: [2]float64{0, 0},
	}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps[1:] {
		if ep.Handover != 0 {
			t.Errorf("epoch %d: handovers without movement", ep.Epoch)
		}
		if ep.MigratedMB != 0 {
			t.Errorf("epoch %d: migration without movement (%v MB)", ep.Epoch, ep.MigratedMB)
		}
	}
}

func TestStickyDeliveryEliminatesMigration(t *testing.T) {
	top, wl := scenario(t, 12, 80, 4, 7)
	cfg := Config{Epochs: 4, EpochSeconds: 120, Speed: [2]float64{5, 15}}
	resolved, err := Simulate(top, wl, iddegSolver, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg.StickyDelivery = true
	sticky, err := Simulate(top, wl, iddegSolver, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	var stickyMB, resolvedLat, stickyLat float64
	for i := range sticky[1:] {
		stickyMB += sticky[i+1].MigratedMB
		resolvedLat += resolved[i+1].LatencyMs
		stickyLat += sticky[i+1].LatencyMs
	}
	if stickyMB != 0 {
		t.Errorf("sticky delivery migrated %v MB", stickyMB)
	}
	// Freezing σ cannot beat re-solving on latency (same allocation
	// dynamics, strictly fewer degrees of freedom).
	if stickyLat < resolvedLat-1e-9 {
		t.Errorf("sticky latency %v beat re-solved %v", stickyLat, resolvedLat)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	top, wl := scenario(t, 10, 40, 3, 9)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	a, err := Simulate(top, wl, iddegSolver, cfg, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(top, wl, iddegSolver, cfg, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d differs across identical runs", i)
		}
	}
}

func TestSimulateDoesNotMutateInput(t *testing.T) {
	top, wl := scenario(t, 10, 40, 3, 11)
	before := make([]geo.Point, len(top.Users))
	for j, u := range top.Users {
		before[j] = u.Pos
	}
	if _, err := Simulate(top, wl, iddegSolver, DefaultConfig(), rng.New(12)); err != nil {
		t.Fatal(err)
	}
	for j, u := range top.Users {
		if u.Pos != before[j] {
			t.Fatalf("user %d position mutated", j)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	top, wl := scenario(t, 8, 20, 2, 13)
	if _, err := Simulate(top, wl, iddegSolver, Config{Epochs: -1, EpochSeconds: 1, Speed: [2]float64{0, 1}}, rng.New(1)); err == nil {
		t.Error("negative epochs accepted")
	}
	if _, err := Simulate(top, wl, iddegSolver, Config{Epochs: 1, EpochSeconds: 0, Speed: [2]float64{0, 1}}, rng.New(1)); err == nil {
		t.Error("zero epoch length accepted")
	}
	if _, err := Simulate(top, wl, iddegSolver, Config{Epochs: 1, EpochSeconds: 1, Speed: [2]float64{5, 1}}, rng.New(1)); err == nil {
		t.Error("inverted speed range accepted")
	}
}

func TestUsersStayInRegion(t *testing.T) {
	top, wl := scenario(t, 10, 60, 3, 15)
	region := top.Region
	solve := func(in *model.Instance) model.Strategy {
		for _, u := range in.Top.Users {
			if region.Clamp(u.Pos) != u.Pos {
				t.Fatalf("user left the region: %v", u.Pos)
			}
		}
		return iddegSolver(in)
	}
	if _, err := Simulate(top, wl, solve, Config{
		Epochs: 5, EpochSeconds: 300, Speed: [2]float64{10, 20},
	}, rng.New(16)); err != nil {
		t.Fatal(err)
	}
}
