package serve

import (
	"math"
	"reflect"
	"testing"

	"idde/internal/model"
	"idde/internal/repair"
	"idde/internal/rng"
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
			got := evalRequest(&tc.v, p[0], p[1], root.SplitN("req", i), nil, nil)
			want := evalRequest(&ref, p[0], p[1], root.SplitN("req", i), nil, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: request %d (%d,%d) = %+v, scan gives %+v", tc.name, i, p[0], p[1], got, want)
			}
		}
	}
}
