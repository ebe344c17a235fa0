package des

import (
	"math"
	"testing"

	"idde/internal/core"
	"idde/internal/rng"
	"idde/internal/units"
)

// The acceptance-criterion test: at 20% per-hop link loss the
// simulation terminates, panics nowhere, degrades latency gracefully
// (never below the reliable run, inflated but finite) and accounts for
// its retries.
func TestTwentyPercentLossDegradesGracefully(t *testing.T) {
	in := genInstance(t, 12, 70, 4, 11)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	rel := Simulate(in, st, SimOptions{Spread: units.Seconds(5)}, rng.New(4))
	f := Faults{LossProb: 0.2}
	fau := Simulate(in, st, SimOptions{Spread: units.Seconds(5), Faults: f}, rng.New(4))

	if fau.Retries == 0 {
		t.Error("20% loss produced zero retries")
	}
	if float64(fau.Avg) < float64(rel.Avg)-1e-9 {
		t.Errorf("lossy avg %v below reliable avg %v", fau.Avg, rel.Avg)
	}
	// Every request completed with a finite latency.
	for i, l := range fau.PerRequest {
		if math.IsInf(float64(l), 0) || math.IsNaN(float64(l)) || l < 0 {
			t.Fatalf("request %d has degenerate latency %v", i, l)
		}
	}
}

func TestFaultyDeterministicUnderSeed(t *testing.T) {
	in := genInstance(t, 10, 60, 3, 5)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	f := Faults{LossProb: 0.3, StallProb: 0.1, StallTime: units.Seconds(0.01)}
	a := Simulate(in, st, SimOptions{Spread: units.Seconds(2), Faults: f}, rng.New(7))
	b := Simulate(in, st, SimOptions{Spread: units.Seconds(2), Faults: f}, rng.New(7))
	if a.Retries != b.Retries || a.Failovers != b.Failovers || a.Stalls != b.Stalls ||
		a.CloudRequests != b.CloudRequests || a.CloudFallbacks != b.CloudFallbacks {
		t.Fatalf("counters differ under same seed: %+v vs %+v", a, b)
	}
	for i := range a.PerRequest {
		if a.PerRequest[i] != b.PerRequest[i] {
			t.Fatalf("request %d latency differs under same seed", i)
		}
	}
	c := Simulate(in, st, SimOptions{Spread: units.Seconds(2), Faults: f}, rng.New(8))
	same := true
	for i := range a.PerRequest {
		if a.PerRequest[i] != c.PerRequest[i] {
			same = false
			break
		}
	}
	if same && a.Retries == c.Retries {
		t.Error("different seeds produced identical fault traces")
	}
}

// Near-certain loss exhausts every edge source; the cloud fallback must
// absorb the traffic and every request must still complete.
func TestRetryExhaustionFailsOverToCloud(t *testing.T) {
	in := genInstance(t, 10, 60, 3, 9)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	f := Faults{LossProb: 0.999999, MaxRetries: 1, Backoff: units.Seconds(0.001)}
	fau := Simulate(in, st, SimOptions{Spread: units.Seconds(5), Faults: f}, rng.New(2))
	if fau.Failovers == 0 {
		t.Error("near-certain loss produced no failovers")
	}
	if fau.CloudFallbacks == 0 {
		t.Error("edge-origin requests never fell back to the cloud")
	}
	for i, l := range fau.PerRequest {
		if math.IsInf(float64(l), 0) || math.IsNaN(float64(l)) {
			t.Fatalf("request %d degenerate latency under total loss", i)
		}
	}
	// More loss means strictly more measured latency than the 20% run.
	mild := Simulate(in, st, SimOptions{Spread: units.Seconds(5), Faults: Faults{LossProb: 0.2}}, rng.New(2))
	if float64(fau.Avg) < float64(mild.Avg) {
		t.Errorf("total-loss avg %v below 20%%-loss avg %v", fau.Avg, mild.Avg)
	}
}

func TestStallsInflateLatency(t *testing.T) {
	in := genInstance(t, 10, 60, 3, 13)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	base := Simulate(in, st, SimOptions{Spread: units.Seconds(5)}, rng.New(6))
	stalled := Simulate(in, st, SimOptions{Spread: units.Seconds(5),
		Faults: Faults{StallProb: 0.5, StallTime: units.Seconds(0.05)}}, rng.New(6))
	if stalled.Stalls == 0 {
		t.Fatal("50% stall probability produced no stalls")
	}
	if float64(stalled.Avg) <= float64(base.Avg) {
		t.Errorf("stalls did not inflate latency: %v vs %v", stalled.Avg, base.Avg)
	}
}
