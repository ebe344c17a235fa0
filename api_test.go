package idde

import (
	"math"
	"strings"
	"testing"
)

func testScenario(t *testing.T, seed uint64) *Scenario {
	t.Helper()
	sc, err := NewScenario(ScenarioConfig{
		Servers: 15, Users: 100, DataItems: 4, Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	return sc
}

func TestNewScenarioValidation(t *testing.T) {
	if _, err := NewScenario(ScenarioConfig{Servers: 0, Users: 10, DataItems: 2}); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := NewScenario(ScenarioConfig{Servers: 10, Users: 0, DataItems: 2}); err == nil {
		t.Error("zero users accepted")
	}
	if _, err := NewScenario(ScenarioConfig{Servers: 10, Users: 10, DataItems: 0}); err == nil {
		t.Error("zero items accepted")
	}
}

func TestScenarioDimensions(t *testing.T) {
	sc := testScenario(t, 1)
	if sc.Servers() != 15 || sc.Users() != 100 || sc.DataItems() != 4 {
		t.Errorf("dims %d/%d/%d", sc.Servers(), sc.Users(), sc.DataItems())
	}
	if sc.TotalStorageMB() <= 0 {
		t.Error("no storage")
	}
	if len(sc.in.Top.Coverage[0]) == 0 {
		t.Error("user 0 uncovered")
	}
}

func TestSolveEveryApproach(t *testing.T) {
	sc := testScenario(t, 2)
	for _, name := range Approaches() {
		st, err := sc.Solve(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Approach != name {
			t.Errorf("approach label = %q", st.Approach)
		}
		if st.AvgRateMBps <= 0 || st.AvgRateMBps > 250 {
			t.Errorf("%s: rate %v out of band", name, st.AvgRateMBps)
		}
		if st.AvgLatencyMs < 0 || st.AvgLatencyMs > 200 {
			t.Errorf("%s: latency %v out of band", name, st.AvgLatencyMs)
		}
		if st.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time", name)
		}
	}
}

func TestSolveUnknownApproach(t *testing.T) {
	sc := testScenario(t, 3)
	if _, err := sc.Solve("NOPE", 0); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestStrategyAccessors(t *testing.T) {
	sc := testScenario(t, 4)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocated := 0
	for j := 0; j < sc.Users(); j++ {
		server, channel, ok := st.Assignment(j)
		if ok {
			allocated++
			if server < 0 || server >= sc.Servers() || channel < 0 {
				t.Fatalf("bad assignment (%d,%d)", server, channel)
			}
			if r := st.UserRateMBps(j); r <= 0 {
				t.Errorf("allocated user %d has rate %v", j, r)
			}
		}
	}
	if allocated != sc.Users() {
		t.Errorf("IDDE-G allocated %d of %d", allocated, sc.Users())
	}
	reps := st.Replicas()
	if len(reps) == 0 {
		t.Error("no replicas placed")
	}
	for _, r := range reps {
		if r.Server < 0 || r.Server >= sc.Servers() || r.Item < 0 || r.Item >= sc.DataItems() {
			t.Errorf("bad replica %+v", r)
		}
	}
}

func TestSolveIDDEGDiagnostics(t *testing.T) {
	sc := testScenario(t, 5)
	st, diag, err := sc.SolveIDDEG()
	if err != nil {
		t.Fatal(err)
	}
	if !diag.GameConverged {
		t.Error("game did not converge")
	}
	if diag.GameUpdates <= 0 || diag.Replicas <= 0 {
		t.Errorf("diagnostics empty: %+v", diag)
	}
	if diag.LatencyReductionSec <= 0 {
		t.Error("no latency reduction")
	}
	if st.AvgRateMBps <= 0 {
		t.Error("no rate")
	}
	// SolveIDDEG and Solve(IDDEG, ·) agree.
	st2, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.AvgRateMBps-st2.AvgRateMBps) > 1e-9 {
		t.Errorf("SolveIDDEG rate %v != Solve rate %v", st.AvgRateMBps, st2.AvgRateMBps)
	}
}

func TestCompareOrderAndHeadline(t *testing.T) {
	sc := testScenario(t, 6)
	sts, err := sc.Compare(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 5 {
		t.Fatalf("Compare returned %d strategies", len(sts))
	}
	byName := map[ApproachName]*Strategy{}
	for i, st := range sts {
		if st.Approach != Approaches()[i] {
			t.Errorf("order wrong at %d: %s", i, st.Approach)
		}
		byName[st.Approach] = st
	}
	// Headline: IDDE-G has the best rate and latency.
	g := byName[IDDEG]
	for name, st := range byName {
		if name == IDDEG {
			continue
		}
		if g.AvgRateMBps < st.AvgRateMBps {
			t.Errorf("IDDE-G rate %v below %s %v", g.AvgRateMBps, name, st.AvgRateMBps)
		}
		if g.AvgLatencyMs > st.AvgLatencyMs {
			t.Errorf("IDDE-G latency %v above %s %v", g.AvgLatencyMs, name, st.AvgLatencyMs)
		}
	}
}

func TestSimulateThroughAPI(t *testing.T) {
	sc := testScenario(t, 7)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Uncontended: measured matches analytic.
	calm := sc.Simulate(st, 1e6, 1)
	if math.Abs(calm.AvgLatencyMs-calm.AnalyticAvgMs) > 1e-6*math.Max(1, calm.AnalyticAvgMs) {
		t.Errorf("uncontended sim %v != analytic %v", calm.AvgLatencyMs, calm.AnalyticAvgMs)
	}
	// Burst: only worse.
	burst := sc.Simulate(st, 0, 1)
	if burst.AvgLatencyMs < calm.AvgLatencyMs-1e-9 {
		t.Errorf("burst %v better than calm %v", burst.AvgLatencyMs, calm.AvgLatencyMs)
	}
	if burst.MaxInflation < 1 {
		t.Errorf("inflation %v < 1", burst.MaxInflation)
	}
	if burst.Events == 0 {
		t.Error("no events")
	}
}

func TestCustomScenarioKnobs(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{
		Servers: 10, Users: 50, DataItems: 3, Seed: 8,
		ChannelsPerServer:    2,
		ChannelBandwidthMBps: 100,
		ItemSizesMB:          []float64{10, 20},
		StorageRangeMB:       [2]float64{20, 40},
		CloudRateMBps:        300,
		Density:              2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With B=100, no user can exceed ~100·log2(1+SINR_cap)… the R_max
	// cap still applies, so just sanity-check the band moved down.
	if st.AvgRateMBps <= 0 {
		t.Error("no rate")
	}
	if sc.TotalStorageMB() > 40*10 {
		t.Errorf("storage exceeds configured cap: %v", sc.TotalStorageMB())
	}
}

func TestSimulateMobilityAPI(t *testing.T) {
	sc := testScenario(t, 12)
	eps, err := sc.SimulateMobility(MobilityConfig{
		Epochs: 2, EpochSeconds: 60, SpeedMps: [2]float64{1, 3},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 3 {
		t.Fatalf("epochs = %d", len(eps))
	}
	for _, ep := range eps {
		if ep.RateMBps <= 0 || ep.Replicas <= 0 {
			t.Errorf("epoch %d malformed: %+v", ep.Epoch, ep)
		}
	}
	if _, err := sc.SimulateMobility(MobilityConfig{Approach: "NOPE"}, 1); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestCompeteAPI(t *testing.T) {
	sc := testScenario(t, 13)
	for _, policy := range []CompetitionPolicy{EvenSplit, Proportional, Draft} {
		res, err := sc.Compete(2, policy, 1)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(res.Vendors) != 2 {
			t.Fatalf("%s: %d vendors", policy, len(res.Vendors))
		}
		users := 0
		for _, v := range res.Vendors {
			users += v.Users
		}
		if users != sc.Users() {
			t.Errorf("%s: vendors own %d of %d users", policy, users, sc.Users())
		}
		if res.JainFairness <= 0 || res.JainFairness > 1+1e-9 {
			t.Errorf("%s: Jain %v", policy, res.JainFairness)
		}
	}
	if _, err := sc.Compete(2, "NOPE", 1); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := sc.Compete(0, EvenSplit, 1); err == nil {
		t.Error("zero vendors accepted")
	}
}

func TestInspectAndDOT(t *testing.T) {
	sc := testScenario(t, 14)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := Inspect(sc, st)
	for _, want := range []string{"topology:", "allocation:", "rate fairness"} {
		if !contains(rep, want) {
			t.Errorf("Inspect missing %q", want)
		}
	}
	if bare := Inspect(sc, nil); contains(bare, "allocation:") {
		t.Error("bare Inspect has strategy section")
	}
	dot := DOT(sc, st)
	if !contains(dot, "graph edgestorage") || !contains(dot, " -- ") {
		t.Error("DOT output malformed")
	}
	if plain := DOT(sc, nil); contains(plain, "u/") {
		t.Error("plain DOT has overlay")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func TestScenarioDeterminism(t *testing.T) {
	a := testScenario(t, 9)
	b := testScenario(t, 9)
	sa, err := a.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sa.AvgRateMBps != sb.AvgRateMBps || sa.AvgLatencyMs != sb.AvgLatencyMs {
		t.Error("identical scenarios solved differently")
	}
}
