package idde

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"idde/internal/model"
)

// loadSaved rebuilds a strategy from Save's artifact, checks it against
// the scenario's constraints (Eqs. 1 and 6) and re-evaluates both
// objectives: the round trip shows the artifact carries everything a
// controller needs to enact the strategy.
func loadSaved(sc *Scenario, r io.Reader) (*Strategy, error) {
	var in strategyJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	if len(in.Alloc) != sc.Users() {
		return nil, fmt.Errorf("artifact has %d users, scenario has %d", len(in.Alloc), sc.Users())
	}
	raw := model.Strategy{
		Alloc:    model.NewAllocation(sc.Users()),
		Delivery: model.NewDelivery(sc.Servers(), sc.DataItems()),
		Mode:     -1,
	}
	for m, name := range modeNames {
		if name == in.Mode {
			raw.Mode = m
		}
	}
	if raw.Mode < 0 {
		return nil, fmt.Errorf("unknown delivery mode %q", in.Mode)
	}
	for j, a := range in.Alloc {
		if a != nil {
			raw.Alloc[j] = model.Alloc{Server: a[0], Channel: a[1]}
		}
	}
	for _, rep := range in.Replicas {
		raw.Delivery.Place(rep[0], rep[1], sc.in.Wl.Items[rep[1]].Size)
	}
	if err := sc.in.Check(raw); err != nil {
		return nil, err
	}
	rate, lat := sc.in.Evaluate(raw)
	return &Strategy{
		Approach:     in.Approach,
		AvgRateMBps:  float64(rate),
		AvgLatencyMs: lat.Millis(),
		raw:          raw,
		sc:           sc,
	}, nil
}

func TestStrategySaveLoadRoundTrip(t *testing.T) {
	sc := testScenario(t, 20)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadSaved(sc, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Approach != IDDEG {
		t.Errorf("approach = %q", got.Approach)
	}
	if math.Abs(got.AvgRateMBps-st.AvgRateMBps) > 1e-9 ||
		math.Abs(got.AvgLatencyMs-st.AvgLatencyMs) > 1e-9 {
		t.Errorf("re-evaluated metrics differ: %v/%v vs %v/%v",
			got.AvgRateMBps, got.AvgLatencyMs, st.AvgRateMBps, st.AvgLatencyMs)
	}
	for j := 0; j < sc.Users(); j++ {
		s1, c1, ok1 := st.Assignment(j)
		s2, c2, ok2 := got.Assignment(j)
		if s1 != s2 || c1 != c2 || ok1 != ok2 {
			t.Fatalf("assignment differs for user %d", j)
		}
	}
	if len(got.Replicas()) != len(st.Replicas()) {
		t.Error("replica count differs")
	}
}

func TestStrategyRoundTripAllModes(t *testing.T) {
	sc := testScenario(t, 21)
	for _, name := range []ApproachName{IDDEG, SAA, CDP, DUPG} {
		st, err := sc.Solve(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := loadSaved(sc, &buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Mode must survive: latency is mode-dependent.
		if math.Abs(got.AvgLatencyMs-st.AvgLatencyMs) > 1e-9 {
			t.Errorf("%s: latency changed across round trip: %v vs %v",
				name, got.AvgLatencyMs, st.AvgLatencyMs)
		}
	}
}
