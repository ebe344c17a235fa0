package des

import (
	"math"
	"testing"

	"idde/internal/baseline"
	"idde/internal/core"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

func genInstance(t *testing.T, n, m, k int, seed uint64) *model.Instance {
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
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return in
}

func TestUncontendedSimulationMatchesAnalytic(t *testing.T) {
	in := genInstance(t, 15, 80, 4, 1)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	// A very wide arrival spread leaves every resource idle on arrival,
	// so measured latency equals the analytic Eq. 8 value per request.
	rep := Simulate(in, st, SimOptions{Spread: units.Seconds(1e6)}, rng.New(2))
	idx := 0
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			analytic := in.RequestLatencyMode(st.Alloc, st.Delivery, j, k, st.Mode)
			got := rep.PerRequest[idx]
			if math.Abs(float64(got-analytic)) > 1e-9*math.Max(1, float64(analytic)) {
				t.Fatalf("request (%d,%d): measured %v != analytic %v", j, k, got, analytic)
			}
			idx++
		}
	}
	if math.Abs(float64(rep.Avg-rep.AnalyticAvg)) > 1e-9 {
		t.Errorf("avg %v != analytic avg %v", rep.Avg, rep.AnalyticAvg)
	}
	if infl := rep.MaxQueueingInflation(in, st); math.Abs(infl-1) > 1e-6 {
		t.Errorf("uncontended inflation = %v", infl)
	}
}

func TestBurstArrivalsOnlyAddDelay(t *testing.T) {
	in := genInstance(t, 15, 120, 5, 3)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	rep := Simulate(in, st, SimOptions{}, rng.New(4)) // synchronized burst
	idx := 0
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			analytic := in.RequestLatencyMode(st.Alloc, st.Delivery, j, k, st.Mode)
			if rep.PerRequest[idx] < analytic-1e-12 {
				t.Fatalf("measured %v beat analytic %v for (%d,%d)", rep.PerRequest[idx], analytic, j, k)
			}
			idx++
		}
	}
	if rep.Avg < rep.AnalyticAvg-1e-12 {
		t.Errorf("burst average %v below analytic %v", rep.Avg, rep.AnalyticAvg)
	}
	if infl := rep.MaxQueueingInflation(in, st); infl < 1 {
		t.Errorf("inflation = %v < 1", infl)
	}
}

func TestSimulationCountsCloudRequests(t *testing.T) {
	in := genInstance(t, 12, 60, 4, 5)
	// Empty delivery: everything comes from the cloud.
	st := model.Strategy{
		Alloc:    model.NewAllocation(in.M()),
		Delivery: model.NewDelivery(in.N(), in.K()),
	}
	rep := Simulate(in, st, SimOptions{Spread: units.Seconds(1e6)}, rng.New(6))
	if rep.CloudRequests != in.Wl.TotalRequests() {
		t.Errorf("cloud requests = %d, want %d", rep.CloudRequests, in.Wl.TotalRequests())
	}
	// With the huge spread, each cloud fetch is uncontended: latency =
	// cloud latency of the item.
	idx := 0
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			want := in.CloudLatency(k)
			if math.Abs(float64(rep.PerRequest[idx]-want)) > 1e-9 {
				t.Fatalf("cloud fetch latency %v != %v", rep.PerRequest[idx], want)
			}
			idx++
		}
	}
}

func TestNonCollaborativeModesBypassWiredNetwork(t *testing.T) {
	in := genInstance(t, 12, 80, 4, 7)
	st := baseline.NewCDP().Solve(in, 0)
	rep := Simulate(in, st, SimOptions{}, rng.New(8))
	// Server-local hits are instantaneous; only cloud fetches take time.
	idx := 0
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			a := st.Alloc[j]
			if a.Allocated() && st.Delivery.Placed(a.Server, k) {
				if rep.PerRequest[idx] != 0 {
					t.Fatalf("local hit took %v", rep.PerRequest[idx])
				}
			}
			idx++
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	in := genInstance(t, 12, 60, 4, 9)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	a := Simulate(in, st, SimOptions{Spread: 0.1}, rng.New(10))
	b := Simulate(in, st, SimOptions{Spread: 0.1}, rng.New(10))
	if a.Avg != b.Avg || a.Events != b.Events {
		t.Error("simulation not deterministic under a fixed seed")
	}
}
