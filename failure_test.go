package idde

import (
	"math"
	"testing"

	"idde/internal/repair"
)

// injectFailure takes the listed servers of sc down and repairs st on
// the degraded instance, the way the chaos and serving tools do, and
// binds the result to a degraded Scenario so the public surface
// (Assignment, Simulate, Inspect) can be driven on it.
func injectFailure(t *testing.T, sc *Scenario, st *Strategy, servers ...int) (*Scenario, *Strategy) {
	t.Helper()
	degIn, err := repair.Degrade(sc.in, repair.Degradation{FailedServers: servers})
	if err != nil {
		t.Fatalf("degrade %v: %v", servers, err)
	}
	raw, _, err := repair.RepairDegraded(sc.in, degIn, st.raw, repair.Options{})
	if err != nil {
		t.Fatalf("repair after failing %v: %v", servers, err)
	}
	degraded := &Scenario{in: degIn}
	rate, lat := degIn.Evaluate(raw)
	return degraded, &Strategy{
		Approach:     st.Approach,
		AvgRateMBps:  float64(rate),
		AvgLatencyMs: lat.Millis(),
		raw:          raw,
		sc:           degraded,
	}
}

func TestInjectFailureAPI(t *testing.T) {
	sc := testScenario(t, 15)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	degraded, repaired := injectFailure(t, sc, st, 0)
	if repaired.AvgRateMBps <= 0 {
		t.Error("repaired strategy has no rate")
	}
	// The repaired strategy belongs to the degraded scenario and can be
	// simulated there.
	sim := degraded.Simulate(repaired, 1e6, 1)
	if sim.Events == 0 {
		t.Error("simulation of repaired strategy did nothing")
	}
	// No user on the failed server.
	for j := 0; j < degraded.Users(); j++ {
		if s, _, ok := repaired.Assignment(j); ok && s == 0 {
			t.Fatalf("user %d still on failed server", j)
		}
	}
	for _, r := range repaired.Replicas() {
		if r.Server == 0 {
			t.Fatalf("replica of item %d still on failed server", r.Item)
		}
	}
}

// Sequential failure injection: each failure degrades the previous
// degraded scenario, whose repaired strategy must support the next
// failure in turn.
func TestInjectFailureSequential(t *testing.T) {
	sc := testScenario(t, 31)
	st, _, err := sc.SolveIDDEG()
	if err != nil {
		t.Fatal(err)
	}
	cur, curSt := sc, st
	for f := 0; f < 4; f++ {
		deg, rep := injectFailure(t, cur, curSt, f)
		if rep.AvgLatencyMs < 0 || math.IsNaN(rep.AvgLatencyMs) {
			t.Fatalf("failure %d: degenerate latency %v", f, rep.AvgLatencyMs)
		}
		if err := deg.in.Check(rep.raw); err != nil {
			t.Fatalf("failure %d: repaired strategy invalid: %v", f, err)
		}
		// Every server failed so far stays down in the degraded scenario.
		for g := 0; g <= f; g++ {
			if !deg.in.Top.Servers[g].Failed {
				t.Fatalf("failure %d: server %d came back up", f, g)
			}
		}
		cur, curSt = deg, rep
	}
	// After four sequential failures the survivors still simulate.
	sim := cur.Simulate(curSt, 5, 1)
	if sim.Events == 0 || math.IsNaN(sim.AvgLatencyMs) {
		t.Errorf("post-failure simulation degenerate: %+v", sim)
	}
}
