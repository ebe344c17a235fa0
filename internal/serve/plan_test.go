package serve

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/geo"
	"idde/internal/graph"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/repair"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

// scanPlan is the plan without a nearest-replica table: every lookup
// runs the literal Eq. 8 scan, In.BestSource and In.RequestLatencyMode.
func scanPlan(p *Plan) *Plan {
	return &Plan{Epoch: p.Epoch, In: p.In, Strategy: p.Strategy}
}

// replannedPlan fails the most-fetched-from server and re-plans onto
// the degraded instance, as the engine's re-planner does.
func replannedPlan(t *testing.T, in *model.Instance, st model.Strategy) (*Plan, int) {
	t.Helper()
	dead := PopularSource(in, st)
	fv, err := repair.Degrade(in, repair.Degradation{FailedServers: []int{dead}})
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err := repair.RepairDegraded(in, fv, st, repair.Options{Waves: 2})
	if err != nil {
		t.Fatal(err)
	}
	return newPlan(1, fv, st2), dead
}

// checkPlanMatchesScan compares the table's answers with In.BestSource
// and In.RequestLatencyMode for every (user, item) of p: the intent (the
// nil-skip query), and the source under a skip of the tabulated source,
// a skip of other servers only, a mix, and every extra skip set given.
func checkPlanMatchesScan(t *testing.T, name string, p *Plan, extra ...func(int) bool) {
	t.Helper()
	in, st := p.In, p.Strategy
	for j := 0; j < in.M(); j++ {
		for k := 0; k < in.K(); k++ {
			src, viaEdge, lat := p.intent(j, k)
			wantSrc, wantEdge := in.BestSource(st.Alloc, st.Delivery, j, k, st.Mode, nil)
			wantLat := in.RequestLatencyMode(st.Alloc, st.Delivery, j, k, st.Mode)
			if src != wantSrc || viaEdge != wantEdge || math.Float64bits(float64(lat)) != math.Float64bits(float64(wantLat)) {
				t.Fatalf("%s: intent(%d,%d) = (%d,%v,%v), scan gives (%d,%v,%v)",
					name, j, k, src, viaEdge, lat, wantSrc, wantEdge, wantLat)
			}
			skips := append([]func(int) bool{
				func(o int) bool { return o == wantSrc },
				func(o int) bool { return o != wantSrc && o%2 == 0 },
				func(o int) bool { return o == wantSrc || o%3 == 1 },
			}, extra...)
			for si, skip := range skips {
				got, gotEdge := p.source(j, k, skip)
				want, wantEdge := in.BestSource(st.Alloc, st.Delivery, j, k, st.Mode, skip)
				if got != want || gotEdge != wantEdge {
					t.Fatalf("%s: source(%d,%d) under skip %d = (%d,%v), scan gives (%d,%v)",
						name, j, k, si, got, gotEdge, want, wantEdge)
				}
			}
		}
	}
}

// TestPlanTableMatchesScan is the nearest-replica table's differential
// test: on a healthy plan and on a plan re-planned after the most
// fetched-from server fails, every answer equals the literal scan, with
// breakers open or half-open and failed servers excluded as evalRequest
// excludes them; a non-Collaborative plan has no table and scans.
func TestPlanTableMatchesScan(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	healthy := newPlan(0, in, st)
	replanned, dead := replannedPlan(t, in, st)

	// Breaker states as a round snapshot sees them during the outage:
	// the dead server open, another half-open with a failed probe draw.
	br := make([]BreakerState, in.N())
	br[dead] = Open
	br[(dead+1)%in.N()] = HalfOpen
	probeDraw, probeFraction := 0.9, 0.5
	admit := func(o int) bool {
		switch br[o] {
		case Closed:
			return true
		case HalfOpen:
			return probeDraw < probeFraction
		default:
			return false
		}
	}
	failed := func(o int) bool { return o == dead }
	breakers := func(o int) bool { return !admit(o) }
	both := func(o int) bool { return failed(o) || !admit(o) }

	for _, tc := range []struct {
		name string
		p    *Plan
	}{{"healthy", healthy}, {"replanned", replanned}} {
		if tc.p.nearest == nil {
			t.Fatalf("%s: Collaborative plan has no table", tc.name)
		}
		checkPlanMatchesScan(t, tc.name, tc.p, failed, breakers, both)
		// A second pass reads only filled entries.
		checkPlanMatchesScan(t, tc.name+" (filled)", tc.p, failed, breakers, both)
	}

	local := st
	local.Mode = model.CoverageLocal
	lp := newPlan(0, in, local)
	if lp.nearest != nil {
		t.Fatal("non-Collaborative plan built a nearest-replica table")
	}
	checkPlanMatchesScan(t, "coverage-local", lp, failed, breakers, both)
}

// TestPlanTableRequestOutcomes checks the table at the data plane's own
// level: every request of the workload, evaluated on each plan and
// fault view with and without the table, resolves to the same outcome.
func TestPlanTableRequestOutcomes(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	replanned, dead := replannedPlan(t, in, st)
	opt := testOptions(5).withDefaults()
	opt.Faults.StallProb, opt.Faults.StallTime = 0.05, 0.05
	opt.Hedge = 0.001 // exercise the hedge's skip lookup too

	br := make([]BreakerState, in.N())
	open := make([]BreakerState, in.N())
	open[dead] = Open
	open[(dead+1)%in.N()] = HalfOpen
	views := []struct {
		name string
		v    view
	}{
		{"healthy", view{plan: newPlan(0, in, st), fv: in, brState: br, opt: &opt}},
		{"outage", view{plan: newPlan(0, in, st), fv: replanned.In, brState: open, opt: &opt}},
		{"replanned", view{plan: replanned, fv: replanned.In, brState: open, opt: &opt}},
	}
	root := rng.New(5)
	for _, tc := range views {
		ref := tc.v
		ref.plan = scanPlan(tc.v.plan)
		for i, p := range requestPairs(in) {
			var got, want RequestOutcome
			evalRequest(&tc.v, p[0], p[1], root.SplitN("req", i), &got, nil)
			evalRequest(&ref, p[0], p[1], root.SplitN("req", i), &want, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: request %d (%d,%d) = %+v, scan gives %+v", tc.name, i, p[0], p[1], got, want)
			}
		}
	}
}

// handBuiltPlan is a 5-server, 3-item Collaborative plan whose path
// costs place Eq. 8's corner cases at known entries. With a = cloud/4,
// c = the cloud's per-MB cost, h = 2c and I = unreachable:
//
//	     0  1  2  3  4
//	0  [ 0  c  h  c  h ]
//	1  [ c  0  a  a  I ]
//	2  [ h  a  0  a  h ]
//	3  [ c  a  a  0  c ]
//	4  [ h  I  h  c  0 ]
//
// Item 0 sits on servers 1 and 3, item 1 nowhere, item 2 on servers 0
// and 2. User j < 5 attaches to server j; user 5 is unallocated.
func handBuiltPlan(t *testing.T) *Plan {
	t.Helper()
	const n = 5
	top := &topology.Topology{
		Region: geo.Rect{MinX: -100, MinY: -100, MaxX: 4100, MaxY: 100},
		Net:    graph.New(n),
		// CloudRate 600 MB/s: c = 1/600 s per MB.
		CloudRate: 600,
	}
	for i := 0; i < n; i++ {
		top.Servers = append(top.Servers, topology.Server{ID: i, Pos: geo.Point{X: float64(1000 * i)}, Radius: 400, Channels: 2, Bandwidth: 200})
		top.Users = append(top.Users, topology.User{ID: i, Pos: geo.Point{X: float64(1000 * i)}, Power: 2, MaxRate: 200})
		if i > 0 {
			top.Net.AddEdge(i-1, i, units.PerMB(3000))
		}
	}
	top.Users = append(top.Users, topology.User{ID: n, Pos: geo.Point{X: 500}, Power: 2, MaxRate: 200})
	if err := top.Finalize(); err != nil {
		t.Fatal(err)
	}
	c := top.CloudCost
	a, h, inf := c/4, 2*c, units.SecondsPerMB(math.Inf(1))
	top.PathCost = [][]units.SecondsPerMB{
		{0, c, h, c, h},
		{c, 0, a, a, inf},
		{h, a, 0, a, h},
		{c, a, a, 0, c},
		{h, inf, h, c, 0},
	}
	wl := &workload.Workload{
		Items:    []workload.Item{{ID: 0, Size: 30}, {ID: 1, Size: 50}, {ID: 2, Size: 70}},
		Capacity: []units.MegaBytes{500, 500, 500, 500, 500},
	}
	for j := 0; j <= n; j++ {
		wl.Requests = append(wl.Requests, []int{0, 1, 2})
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	alloc := model.NewAllocation(in.M())
	for j := 0; j < n; j++ {
		alloc[j] = model.Alloc{Server: j, Channel: 0}
	}
	d := model.NewDelivery(n, in.K())
	for _, r := range [][2]int{{1, 0}, {3, 0}, {0, 2}, {2, 2}} {
		d.Place(r[0], r[1], in.Wl.Items[r[1]].Size)
	}
	return newPlan(0, in, model.Strategy{Alloc: alloc, Delivery: d, Mode: model.Collaborative})
}

// TestPlanTableCornerCases checks the table on Eq. 8's ties and edge
// cases against the literal scan, and that the hand-built instance
// really contains them:
//   - item 0 at server 2: two holders at bit-equal cost, the lower index wins;
//   - item 0 at server 4: the only reachable holder costs exactly the
//     cloud's latency, and the edge wins the tie;
//   - item 0 at server 0 and item 2 at server 1: a holder ties the cloud
//     first, then a later holder at the same cost loses, or a cheaper one wins;
//   - item 1: no holder, so every server routes to the cloud;
//   - item 2 at server 4: every holder is dearer than the cloud.
//
// It also runs the differential on a generated instance with more than
// 64 servers, so each item's pass spans several cache lines of entries.
func TestPlanTableCornerCases(t *testing.T) {
	p := handBuiltPlan(t)
	want := [5][3]int{ // [server][item] source, −1 = cloud
		{1, -1, 0},
		{1, -1, 2},
		{1, -1, 2},
		{3, -1, 2},
		{3, -1, -1},
	}
	for i, row := range want {
		for k, w := range row {
			if src, viaEdge, _ := p.intent(i, k); src != w || viaEdge != (w >= 0) {
				t.Errorf("intent(user at v%d, item %d) = (%d,%v), want source %d", i, k, src, viaEdge, w)
			}
		}
	}
	checkPlanMatchesScan(t, "hand-built", p)

	in := genInstance(t, 80, 320, 5, 3)
	checkPlanMatchesScan(t, "N=80", newPlan(0, in, solved(t, in)))
}

// FuzzPlanTableMatchesScan generates an instance from the fuzzer's seed
// and sizes, solves it, and compares every (user, item) of the healthy
// plan and of a plan re-planned after the most fetched-from server
// fails with the literal Eq. 8 scan.
func FuzzPlanTableMatchesScan(f *testing.F) {
	f.Add(uint64(11), uint8(10), uint8(60), uint8(4))
	f.Add(uint64(2022), uint8(3), uint8(1), uint8(1))
	f.Add(uint64(7331), uint8(17), uint8(90), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, n, m, k uint8) {
		in := genInstance(t, 3+int(n)%16, 1+int(m)%90, 1+int(k)%7, seed)
		st := solved(t, in)
		checkPlanMatchesScan(t, "healthy", newPlan(0, in, st))
		replanned, _ := replannedPlan(t, in, st)
		checkPlanMatchesScan(t, "replanned", replanned)
	})
}

var benchPlan *Plan

// BenchmarkNewPlan measures one Collaborative plan build, the table fill
// included, on the instances of the benchmark's solve-global (N=1000,
// M=4000, K=5) and serve-outage (N=40, M=400, K=8) workloads. Phase 2's
// placement on an allocation that spreads users over their covering
// servers stands in for a full solve: at solve-global size it places
// about as many replicas (1,624 against 1,650) in milliseconds, not
// seconds.
func BenchmarkNewPlan(b *testing.B) {
	for _, p := range []experiment.Params{
		{N: 1000, M: 4000, K: 5, Density: 1.0, RegionScale: math.Sqrt(1000.0 / 125)},
		{N: 40, M: 400, K: 8, Density: 1.0},
	} {
		b.Run(fmt.Sprintf("N=%d_M=%d_K=%d", p.N, p.M, p.K), func(b *testing.B) {
			in, err := experiment.BuildInstance(p, 2022)
			if err != nil {
				b.Fatal(err)
			}
			alloc := model.NewAllocation(in.M())
			for j, cov := range in.Top.Coverage {
				if len(cov) > 0 {
					alloc[j] = model.Alloc{Server: cov[j%len(cov)], Channel: 0}
				}
			}
			d, _ := core.SolveDeliveryOpt(in, alloc, core.Options{})
			st := model.Strategy{Alloc: alloc, Delivery: d, Mode: model.Collaborative}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPlan = newPlan(0, in, st)
			}
			b.ReportMetric(float64(d.Count()), "replicas")
		})
	}
}
