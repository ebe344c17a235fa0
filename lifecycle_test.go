package idde

import (
	"bytes"
	"testing"
)

// TestFullLifecycle drives the public API through the whole story a
// production adopter would live: build a scenario, race the approaches,
// persist the winner, validate it under burst load, follow the crowd
// through a mobility window and inspect the result — one integration
// test across every subsystem the API exposes.
func TestFullLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle test skipped in -short")
	}
	sc, err := NewScenario(ScenarioConfig{
		Servers: 18, Users: 140, DataItems: 5, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 1. Race all five approaches; the paper's winner must win here too.
	sts, err := sc.Compare(99)
	if err != nil {
		t.Fatal(err)
	}
	var winner *Strategy
	for _, st := range sts {
		if st.Approach == IDDEG {
			winner = st
		}
	}
	for _, st := range sts {
		if st.Approach == IDDEG {
			continue
		}
		if winner.AvgRateMBps < st.AvgRateMBps || winner.AvgLatencyMs > st.AvgLatencyMs {
			t.Fatalf("IDDE-G did not dominate %s: rate %v vs %v, lat %v vs %v",
				st.Approach, winner.AvgRateMBps, st.AvgRateMBps, winner.AvgLatencyMs, st.AvgLatencyMs)
		}
	}

	// 2. Persist and reload the deployment artifact.
	var buf bytes.Buffer
	if err := winner.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := loadSaved(sc, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.AvgLatencyMs != winner.AvgLatencyMs {
		t.Fatal("reloaded strategy changed latency")
	}

	// 3. Validate under a synchronized burst on the simulator.
	burst := sc.Simulate(reloaded, 0, 1)
	if burst.AvgLatencyMs < burst.AnalyticAvgMs-1e-9 {
		t.Fatal("burst beat the analytic bound")
	}

	// 4. Crowd moves on: one mobility window.
	eps, err := sc.SimulateMobility(MobilityConfig{
		Epochs: 2, EpochSeconds: 60, SpeedMps: [2]float64{1, 2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 3 || eps[2].RateMBps <= 0 {
		t.Fatalf("mobility epochs malformed: %+v", eps)
	}

	// 5. Observability: the inspection report covers the deployed
	// strategy.
	report := Inspect(sc, reloaded)
	if report == "" {
		t.Fatal("empty inspection report")
	}
}
