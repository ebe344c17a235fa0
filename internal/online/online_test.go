package online

import (
	"testing"

	"idde/internal/core"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
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

func TestJoinLeaveBasics(t *testing.T) {
	in := genInstance(t, 12, 80, 4, 1)
	sys := NewSystem(in)
	if sys.ActiveCount() != 0 {
		t.Fatal("fresh system not empty")
	}
	moves, err := sys.Join(5)
	if err != nil {
		t.Fatal(err)
	}
	if moves < 1 {
		t.Error("join committed no moves")
	}
	if !sys.active[5] || sys.ActiveCount() != 1 {
		t.Error("activation bookkeeping wrong")
	}
	if !sys.ledger.Alloc()[5].Allocated() {
		t.Error("joined user not allocated")
	}
	if _, err := sys.Join(5); err == nil {
		t.Error("double join accepted")
	}
	if _, err := sys.Leave(5); err != nil {
		t.Fatal(err)
	}
	if sys.active[5] || sys.ledger.Alloc()[5].Allocated() {
		t.Error("leave bookkeeping wrong")
	}
	if _, err := sys.Leave(5); err == nil {
		t.Error("double leave accepted")
	}
	if _, err := sys.Join(-1); err == nil {
		t.Error("bad id accepted")
	}
	st := sys.Stats()
	if st.Joins != 1 || st.Leaves != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestSequentialJoinsApproachBatchQuality(t *testing.T) {
	in := genInstance(t, 15, 120, 4, 2)
	sys := NewSystem(in)
	for j := 0; j < in.M(); j++ {
		if _, err := sys.Join(j); err != nil {
			t.Fatal(err)
		}
	}
	onlineRate, onlineLat := sys.Metrics()

	batch := core.Solve(in, core.DefaultOptions())
	if float64(onlineRate) < 0.8*float64(batch.AvgRate) {
		t.Errorf("online rate %v far below batch IDDE-G %v", onlineRate, batch.AvgRate)
	}
	// The online delivery is conservative (threshold + no eviction), so
	// allow a factor over batch latency but demand big gains vs cloud.
	var cloudSum float64
	reqs := 0
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			cloudSum += float64(in.CloudLatency(k))
			reqs++
		}
	}
	cloudAvg := cloudSum / float64(reqs)
	if float64(onlineLat) > 0.6*cloudAvg {
		t.Errorf("online latency %v barely better than all-cloud %v", onlineLat, cloudAvg)
	}
	_ = batch
}

func TestIncrementalWorkIsBounded(t *testing.T) {
	in := genInstance(t, 15, 150, 4, 3)
	sys := NewSystem(in)
	maxMoves := 0
	total := 0
	for j := 0; j < in.M(); j++ {
		moves, err := sys.Join(j)
		if err != nil {
			t.Fatal(err)
		}
		total += moves
		if moves > maxMoves {
			maxMoves = moves
		}
	}
	// The selling point: events touch a neighbourhood, not the system.
	if avg := float64(total) / float64(in.M()); avg > 10 {
		t.Errorf("average %.1f moves per join — not incremental", avg)
	}
	if maxMoves > 60 {
		t.Errorf("worst join caused %d moves", maxMoves)
	}
}

func TestLeaveFreesSpectrum(t *testing.T) {
	in := genInstance(t, 10, 100, 3, 4)
	sys := NewSystem(in)
	for j := 0; j < in.M(); j++ {
		if _, err := sys.Join(j); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := sys.Metrics()
	// Remove a third of the crowd.
	for j := 0; j < in.M(); j += 3 {
		if _, err := sys.Leave(j); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := sys.Metrics()
	if after <= before {
		t.Errorf("rate did not improve after departures: %v -> %v", before, after)
	}
}

func TestDeliveryPatchingServesJoiners(t *testing.T) {
	in := genInstance(t, 12, 80, 3, 5)
	sys := NewSystem(in)
	for j := 0; j < in.M(); j++ {
		if _, err := sys.Join(j); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Stats().Placements == 0 {
		t.Error("no on-demand placements happened")
	}
	if err := in.CheckDelivery(sys.deliv); err != nil {
		t.Errorf("patched delivery invalid: %v", err)
	}
	// The allocation must remain valid throughout.
	if err := in.CheckAllocation(sys.ledger.Alloc()); err != nil {
		t.Errorf("allocation invalid: %v", err)
	}
}

func TestOnlineDeterministic(t *testing.T) {
	in := genInstance(t, 10, 60, 3, 6)
	run := func() (float64, float64, Stats) {
		sys := NewSystem(in)
		for j := 0; j < in.M(); j++ {
			sys.Join(j)
		}
		for j := 0; j < in.M(); j += 4 {
			sys.Leave(j)
		}
		r, l := sys.Metrics()
		return float64(r), float64(l), sys.Stats()
	}
	r1, l1, s1 := run()
	r2, l2, s2 := run()
	if r1 != r2 || l1 != l2 || s1 != s2 {
		t.Error("online system not deterministic")
	}
}

func TestMetricsEmptySystem(t *testing.T) {
	in := genInstance(t, 8, 30, 2, 7)
	sys := NewSystem(in)
	r, l := sys.Metrics()
	if r != 0 || l != 0 {
		t.Errorf("empty metrics = %v/%v", r, l)
	}
}
