package baseline

import (
	"math"
	"testing"

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
	top, err := topology.Generate(topology.DefaultGen(n, m, 1.0), s.Split("top"))
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

// fastIP returns an IDDE-IP configured for deterministic, quick tests.
func fastIP() *IDDEIP {
	return &IDDEIP{MaxIters: 3000}
}

func testApproaches() []Approach {
	return []Approach{fastIP(), NewIDDEG(), NewSAA(), NewCDP(), NewDUPG()}
}

func TestEveryApproachProducesValidStrategies(t *testing.T) {
	in := genInstance(t, 15, 100, 4, 1)
	for _, ap := range testApproaches() {
		st := ap.Solve(in, 42)
		if err := in.Check(st); err != nil {
			t.Errorf("%s: invalid strategy: %v", ap.Name(), err)
			continue
		}
		rate, lat := in.Evaluate(st)
		if rate < 0 || math.IsNaN(float64(rate)) || math.IsInf(float64(rate), 0) {
			t.Errorf("%s: bad rate %v", ap.Name(), rate)
		}
		if lat < 0 || math.IsNaN(float64(lat)) {
			t.Errorf("%s: bad latency %v", ap.Name(), lat)
		}
	}
}

func TestApproachNames(t *testing.T) {
	want := map[string]bool{"IDDE-IP": true, "IDDE-G": true, "SAA": true, "CDP": true, "DUP-G": true}
	for _, ap := range All() {
		if !want[ap.Name()] {
			t.Errorf("unexpected approach name %q", ap.Name())
		}
		delete(want, ap.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing approaches: %v", want)
	}
	if len(Heuristics()) != 4 {
		t.Errorf("Heuristics count = %d", len(Heuristics()))
	}
}

func TestStochasticApproachesAreSeedDeterministic(t *testing.T) {
	in := genInstance(t, 12, 80, 4, 3)
	for _, mk := range []func() Approach{
		func() Approach { return NewSAA() },
		func() Approach { return fastIP() },
	} {
		a1, a2 := mk(), mk()
		s1 := a1.Solve(in, 7)
		s2 := a2.Solve(in, 7)
		r1, l1 := in.Evaluate(s1)
		r2, l2 := in.Evaluate(s2)
		if r1 != r2 || l1 != l2 {
			t.Errorf("%s: same seed gave different outcomes (%v/%v vs %v/%v)",
				a1.Name(), r1, l1, r2, l2)
		}
	}
}

func TestSAADiffersAcrossSeeds(t *testing.T) {
	in := genInstance(t, 12, 80, 4, 4)
	a := NewSAA()
	r1, _ := in.Evaluate(a.Solve(in, 1))
	r2, _ := in.Evaluate(a.Solve(in, 2))
	if r1 == r2 {
		t.Skip("seeds happened to coincide; acceptable but unusual")
	}
}

func TestDUPGPlacesOnlyLocallyUsefulItems(t *testing.T) {
	in := genInstance(t, 12, 80, 4, 5)
	st := NewDUPG().Solve(in, 0)
	// Every replica DUP-G places must be requested by at least one user
	// allocated to that server.
	localReq := make(map[[2]int]bool)
	for j, a := range st.Alloc {
		if !a.Allocated() {
			continue
		}
		for _, k := range in.Wl.Requests[j] {
			localReq[[2]int{a.Server, k}] = true
		}
	}
	for i := 0; i < in.N(); i++ {
		for k := 0; k < in.K(); k++ {
			if st.Delivery.Placed(i, k) && !localReq[[2]int{i, k}] {
				t.Errorf("DUP-G placed (%d,%d) with no local demand", i, k)
			}
		}
	}
}

func TestCDPAllocationIsNearestServer(t *testing.T) {
	in := genInstance(t, 12, 60, 3, 6)
	st := NewCDP().Solve(in, 0)
	for j, a := range st.Alloc {
		if !a.Allocated() {
			continue
		}
		for _, i := range in.Top.Coverage[j] {
			if in.GainAt(i, j) > in.GainAt(a.Server, j)+1e-15 {
				t.Errorf("user %d allocated to v%d but v%d has higher gain", j, a.Server, i)
			}
		}
	}
}

func TestIDDEIPImprovesOnItsSeedState(t *testing.T) {
	in := genInstance(t, 12, 80, 4, 8)
	ip := fastIP()
	st := ip.Solve(in, 9)
	rate, lat := in.Evaluate(st)
	// The search starts from nearest-allocation + empty delivery; the
	// incumbent must score at least as well.
	seedRate := in.AvgRate(nearestAllocation(in))
	seedLat := in.AvgLatency(nearestAllocation(in), model.NewDelivery(in.N(), in.K()))
	p := &ipProblem{in: in, cloudAvg: avgCloudLatency(in), rateCap: avgRateCap(in)}
	seedScore := float64(seedRate)/p.rateCap - float64(seedLat)/p.cloudAvg
	gotScore := float64(rate)/p.rateCap - float64(lat)/p.cloudAvg
	if gotScore < seedScore-1e-12 {
		t.Errorf("IP incumbent score %v below seed score %v", gotScore, seedScore)
	}
}

// TestDegenerateScenarios: every approach must stay correct when the
// scenario collapses to its edges — a single item, a near-empty user
// population, more channels than users, or storage too small for any
// replica.
func TestDegenerateScenarios(t *testing.T) {
	cases := []struct {
		name    string
		n, m, k int
	}{
		{"single-item", 10, 60, 1},
		{"few-users", 10, 3, 3},
		{"single-server-worth", 2, 10, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := genInstance(t, tc.n, tc.m, tc.k, 77)
			for _, ap := range testApproaches() {
				st := ap.Solve(in, 1)
				if err := in.Check(st); err != nil {
					t.Errorf("%s: %v", ap.Name(), err)
				}
			}
		})
	}
}

func TestTinyStorageMeansNoReplicas(t *testing.T) {
	// Capacities below the smallest item: nothing can be placed, all
	// deliveries degenerate to cloud-only, and nobody crashes.
	s := rng.New(88)
	top, err := topology.Generate(topology.DefaultGen(8, 40, 1.0), s.Split("top"))
	if err != nil {
		t.Fatal(err)
	}
	wc := workload.DefaultGen(3)
	wc.Capacity = [2]units.MegaBytes{1, 5} // < 30MB min item size
	wl, err := workload.Generate(wc, 8, 40, s.Split("wl"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range testApproaches() {
		st := ap.Solve(in, 1)
		if err := in.Check(st); err != nil {
			t.Fatalf("%s: %v", ap.Name(), err)
		}
		if st.Delivery.Count() != 0 {
			t.Errorf("%s placed %d replicas into impossible storage", ap.Name(), st.Delivery.Count())
		}
		_, lat := in.Evaluate(st)
		if lat <= 0 {
			t.Errorf("%s: cloud-only latency %v", ap.Name(), lat)
		}
	}
}

// TestHeadlineOrdering reproduces the paper's core comparative claim on
// a small ensemble: IDDE-G achieves the highest average data rate and
// the lowest average delivery latency of the five approaches.
func TestHeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble comparison skipped in -short")
	}
	const seeds = 3
	rateSum := map[string]float64{}
	latSum := map[string]float64{}
	for seed := uint64(0); seed < seeds; seed++ {
		in := genInstance(t, 20, 150, 5, 100+seed)
		for _, ap := range testApproaches() {
			st := ap.Solve(in, seed)
			rate, lat := in.Evaluate(st)
			rateSum[ap.Name()] += float64(rate)
			latSum[ap.Name()] += float64(lat)
		}
	}
	for name, r := range rateSum {
		if name == "IDDE-G" {
			continue
		}
		if rateSum["IDDE-G"] < r {
			t.Errorf("IDDE-G mean rate %v below %s %v", rateSum["IDDE-G"]/seeds, name, r/seeds)
		}
		if latSum["IDDE-G"] > latSum[name] {
			t.Errorf("IDDE-G mean latency %v above %s %v", latSum["IDDE-G"]/seeds, name, latSum[name]/seeds)
		}
	}
}
