package idde

import (
	"reflect"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/geo"
	"idde/internal/graph"
	"idde/internal/model"
	"idde/internal/placement"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

// The end-to-end differential suite for the Phase 2 performance work:
// the cohort-aggregated oracle and the swap-remove Greedy must both
// commit the replica sequence the literal per-request reference
// commits, so every figure CSV is unchanged by the optimization.

// deliveryCombos runs Phase 2 on four oracle×engine combinations:
// optimized (cohort + CELF), cohort + literal re-scan, naive oracle +
// CELF, and the full reference (naive oracle + literal re-scan).
func deliveryCombos(in *model.Instance, alloc model.Allocation) []struct {
	name string
	d    *model.Delivery
	res  placement.Result
} {
	combos := []struct {
		name string
		opt  core.Options
	}{
		{"cohort+lazy", core.Options{}},
		{"cohort+naive-greedy", core.Options{NaiveGreedy: true}},
		{"naive-oracle+lazy", core.Options{NaiveLatency: true}},
		{"reference", core.Options{NaiveLatency: true, NaiveGreedy: true}},
	}
	out := make([]struct {
		name string
		d    *model.Delivery
		res  placement.Result
	}, len(combos))
	for idx, c := range combos {
		d, res := core.SolveDeliveryOpt(in, alloc, c.opt)
		out[idx] = struct {
			name string
			d    *model.Delivery
			res  placement.Result
		}{c.name, d, res}
	}
	return out
}

// checkCombosAgree asserts every combination committed the identical
// replica sequence and delivery profile with the bit-identical total
// gain: the reference walk shares the cohort fold order by design (see
// model.LatencyState), so even the cross-oracle comparison is exact —
// anything weaker would let mathematically tied candidates resolve
// differently between the optimized and reference paths.
func checkCombosAgree(t *testing.T, label string, in *model.Instance, alloc model.Allocation) {
	t.Helper()
	combos := deliveryCombos(in, alloc)
	base := combos[0]
	for _, c := range combos[1:] {
		if !reflect.DeepEqual(c.res.Chosen, base.res.Chosen) {
			t.Fatalf("%s: %s chose a different replica sequence than %s:\n%v\nvs\n%v",
				label, c.name, base.name, c.res.Chosen, base.res.Chosen)
		}
		if !reflect.DeepEqual(c.d, base.d) {
			t.Fatalf("%s: %s delivery profile diverges from %s", label, c.name, base.name)
		}
		if c.res.TotalGain != base.res.TotalGain {
			t.Fatalf("%s: %s total gain diverges from %s: %g vs %g",
				label, c.name, base.name, c.res.TotalGain, base.res.TotalGain)
		}
	}
}

// TestDeliveryCohortMatchesReferenceOnGrid sweeps the sampled Table 2
// grid with equilibrium allocations from Phase 1 — the production
// pipeline — and pins all five oracle×engine combinations to one
// committed sequence.
func TestDeliveryCohortMatchesReferenceOnGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential sweep")
	}
	for _, p := range sampledParams(t) {
		in, err := experiment.BuildInstance(p, 2022)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		alloc, _ := core.SolvePhase1(in, core.DefaultOptions())
		checkCombosAgree(t, p.String(), in, alloc)
	}
}

// TestDeliveryCohortMatchesReferenceOnPartialAllocations feeds Phase 2
// seeded random allocations that leave a slice of users unallocated
// (their requests are pinned at cloud latency and must not contribute
// to any gain) instead of Phase 1 equilibria.
func TestDeliveryCohortMatchesReferenceOnPartialAllocations(t *testing.T) {
	for _, seed := range []uint64{3, 17, 2022} {
		in, err := experiment.BuildInstance(experiment.Params{N: 20, M: 150, K: 6, Density: 1.0}, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := rng.New(seed * 7)
		alloc := model.NewAllocation(in.M())
		for j := 0; j < in.M(); j++ {
			vs := in.Top.Coverage[j]
			if len(vs) == 0 || s.Bool(0.2) {
				continue // leave unallocated
			}
			i := vs[s.IntN(len(vs))]
			alloc[j] = model.Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
		}
		checkCombosAgree(t, "partial", in, alloc)
	}
}

// tieInstance builds a mirror-symmetric 2-server instance where the two
// candidates (v0,d0) and (v1,d0) have exactly equal gain and equal
// cost: u0 on v0 and u1 on v1 both request d0, the servers are
// identical, and the link is symmetric. The gain-per-cost ratios tie
// bit-exactly, so only the candidate-index tie-break separates them.
func tieInstance(t *testing.T) (*model.Instance, model.Allocation) {
	t.Helper()
	top := &topology.Topology{
		Region: geo.Rect{MinX: -100, MinY: -100, MaxX: 700, MaxY: 100},
		Servers: []topology.Server{
			{ID: 0, Pos: geo.Point{X: 0, Y: 0}, Radius: 250, Channels: 2, Bandwidth: 200},
			{ID: 1, Pos: geo.Point{X: 600, Y: 0}, Radius: 250, Channels: 2, Bandwidth: 200},
		},
		Users: []topology.User{
			{ID: 0, Pos: geo.Point{X: 100, Y: 0}, Power: 2, MaxRate: 200},
			{ID: 1, Pos: geo.Point{X: 500, Y: 0}, Power: 2, MaxRate: 200},
		},
		Net:       graph.New(2),
		CloudRate: 600,
	}
	top.Net.AddEdge(0, 1, units.PerMB(3000))
	if err := top.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	wl := &workload.Workload{
		Items:    []workload.Item{{ID: 0, Size: 30}},
		Requests: [][]int{{0}, {0}},
		Capacity: []units.MegaBytes{30, 30},
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	alloc := model.Allocation{
		{Server: 0, Channel: 0},
		{Server: 1, Channel: 0},
	}
	return in, alloc
}

// TestDeliveryExactTieBreaksByCandidateIndex pins the exact-tie rule
// end to end: with two bit-identical gain-per-cost candidates, every
// oracle×engine combination must commit (v0,d0) first — ascending
// candidate index — and then (v1,d0).
func TestDeliveryExactTieBreaksByCandidateIndex(t *testing.T) {
	in, alloc := tieInstance(t)
	want := []placement.Candidate{{Server: 0, Item: 0}, {Server: 1, Item: 0}}
	for _, c := range deliveryCombos(in, alloc) {
		if !reflect.DeepEqual(c.res.Chosen, want) {
			t.Fatalf("%s broke the exact tie differently: %v", c.name, c.res.Chosen)
		}
	}
}

// TestDeliverySkipsUnrequestedItems pins the zero-requester satellite:
// items nobody requests are excluded from the candidate list, so the
// seed scan shrinks accordingly and the committed profile never places
// them.
func TestDeliverySkipsUnrequestedItems(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 10, M: 30, K: 12, Density: 1.0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	requested := make(map[int]bool)
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			requested[k] = true
		}
	}
	if len(requested) == in.K() {
		t.Skip("workload draw requested every item; no unrequested items to skip")
	}
	alloc, _ := core.SolvePhase1(in, core.DefaultOptions())
	d, res := core.SolveDeliveryOpt(in, alloc, core.Options{NaiveGreedy: true})
	// The literal re-scan evaluates every candidate each round: with
	// unrequested items skipped, the first-round evaluation count is at
	// most N × requested-items.
	if maxSeed := in.N() * len(requested); res.Evaluations > maxSeed*(len(res.Chosen)+1) {
		t.Fatalf("evaluations %d exceed the requested-items bound %d×%d",
			res.Evaluations, maxSeed, len(res.Chosen)+1)
	}
	for k := 0; k < in.K(); k++ {
		if requested[k] {
			continue
		}
		for i := 0; i < in.N(); i++ {
			if d.Placed(i, k) {
				t.Fatalf("unrequested item %d placed on server %d", k, i)
			}
		}
	}
}
