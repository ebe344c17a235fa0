package paper

import (
	"fmt"
	"strings"
	"testing"

	"idde/internal/baseline"
	"idde/internal/experiment"
)

func TestQuotedTablesComplete(t *testing.T) {
	for _, name := range Baselines {
		if _, ok := Overall.Rate[name]; !ok {
			t.Errorf("Overall.Rate missing %s", name)
		}
		if _, ok := Overall.Latency[name]; !ok {
			t.Errorf("Overall.Latency missing %s", name)
		}
	}
	for _, name := range append([]string{"IDDE-G"}, Baselines...) {
		if _, ok := Set2RateEndpoints[name]; !ok {
			t.Errorf("Set2RateEndpoints missing %s", name)
		}
		if _, ok := Set3LatencyRange[name]; !ok {
			t.Errorf("Set3LatencyRange missing %s", name)
		}
		if _, ok := Fig7MeanSeconds[name]; !ok {
			t.Errorf("Fig7MeanSeconds missing %s", name)
		}
	}
}

func TestQuotedValuesInternallyConsistent(t *testing.T) {
	// Rates decrease from M=50 to M=350 for every approach (Fig. 4a).
	for name, ep := range Set2RateEndpoints {
		if ep[0] <= ep[1] {
			t.Errorf("%s: Set2 endpoints not decreasing: %v", name, ep)
		}
	}
	// Latencies increase from K=2 to K=8 (Fig. 5b).
	for name, r := range Set3LatencyRange {
		if r[0] >= r[1] {
			t.Errorf("%s: Set3 range not increasing: %v", name, r)
		}
	}
	// IDDE-G has the lowest quoted Set-3 mean latency.
	for name, v := range Set3LatencyMean {
		if name != "IDDE-G" && v <= Set3LatencyMean["IDDE-G"] {
			t.Errorf("%s quoted latency %v not above IDDE-G", name, v)
		}
	}
}

// TestSet2EndpointShape reproduces the quoted Fig. 4(a) endpoints'
// qualitative content on live runs: every approach's rate falls sharply
// from M=50 to M=350, IDDE-G is highest at both endpoints, and its
// relative drop is within a few points of the paper's −65.2%.
func TestSet2EndpointShape(t *testing.T) {
	if testing.Short() {
		t.Skip("endpoint reproduction skipped in -short")
	}
	set := experiment.Set{
		ID: 2, Vary: "M", Values: []float64{50, 350},
		Base: experiment.Params{N: 30, K: 5, Density: 1.0},
	}
	cfg := experiment.Config{
		Reps: 3, Seed: 2022,
		Approaches: []baseline.Approach{
			baseline.NewIDDEG(), baseline.NewSAA(), baseline.NewCDP(), baseline.NewDUPG(),
		},
	}
	sr, err := experiment.RunSet(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := func(pi int, name string) float64 { return sr.Points[pi].ByApproach[name].Rate.Mean }
	for _, name := range []string{"IDDE-G", "SAA", "CDP", "DUP-G"} {
		lo, hi := at(1, name), at(0, name)
		if hi <= lo {
			t.Errorf("%s: rate did not fall with M: %v -> %v", name, hi, lo)
		}
		if name != "IDDE-G" {
			if at(0, "IDDE-G") < at(0, name) || at(1, "IDDE-G") < at(1, name) {
				t.Errorf("IDDE-G not highest at an endpoint vs %s", name)
			}
		}
	}
	drop := 1 - at(1, "IDDE-G")/at(0, "IDDE-G")
	paperDrop := 1 - Set2RateEndpoints["IDDE-G"][1]/Set2RateEndpoints["IDDE-G"][0]
	if drop < paperDrop-0.10 || drop > paperDrop+0.10 {
		t.Errorf("IDDE-G endpoint drop %.1f%% outside ±10pp of paper's %.1f%%", drop*100, paperDrop*100)
	}
}

func TestCompareAdvantagesAndMarkdown(t *testing.T) {
	set := experiment.Set{
		ID: 1, Vary: "N", Values: []float64{10},
		Base: experiment.Params{M: 60, K: 3, Density: 1.0},
	}
	cfg := experiment.Config{
		Reps: 2, Seed: 5,
		Approaches: []baseline.Approach{
			&baseline.IDDEIP{MaxIters: 300},
			baseline.NewIDDEG(), baseline.NewSAA(), baseline.NewCDP(), baseline.NewDUPG(),
		},
	}
	sr, err := experiment.RunSet(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := CompareAdvantages(sr)
	if len(checks) != 8 {
		t.Fatalf("checks = %d, want 8", len(checks))
	}
	okCount := 0
	for _, c := range checks {
		if c.OK {
			okCount++
		}
	}
	if okCount < 6 {
		t.Errorf("only %d/8 shape checks passed on a standard instance", okCount)
	}
	md := Markdown(checks)
	for _, want := range []string{"| Quantity |", "Set #1 rate advantage vs SAA", "✓"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// TestBaselinesNotRunGetNoRows: without IDDE-IP in the run, neither the
// per-set shape checks nor the overall table carry an IDDE-IP row, and
// the overall row of a baseline averages its per-set advantages.
func TestBaselinesNotRunGetNoRows(t *testing.T) {
	cfg := experiment.Config{Reps: 1, Seed: 5, Approaches: baseline.Heuristics()}
	var srs []*experiment.SetResult
	for _, id := range []int{1, 2} {
		set := experiment.Set{
			ID: id, Vary: "N", Values: []float64{10},
			Base: experiment.Params{M: 40, K: 3, Density: 1.0},
		}
		sr, err := experiment.RunSet(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srs = append(srs, sr)
		checks := CompareAdvantages(sr)
		if len(checks) != 6 {
			t.Fatalf("set %d: %d checks, want 6", id, len(checks))
		}
		for _, c := range checks {
			if strings.Contains(c.Name, "IDDE-IP") {
				t.Fatalf("check %q for a baseline the set did not run", c.Name)
			}
		}
	}
	md := OverallMarkdown(srs)
	if strings.Contains(md, "IDDE-IP") || strings.Count(md, "\n") != 2+3 {
		t.Fatalf("overall table:\n%s", md)
	}
	sum := srs[0].Advantage("SAA", experiment.RateMetric) + srs[1].Advantage("SAA", experiment.RateMetric)
	if want := fmt.Sprintf("| SAA | %.2f%% | %.2f%% |", Overall.Rate["SAA"], sum/2*100); !strings.Contains(md, want) {
		t.Fatalf("overall table lacks %q:\n%s", want, md)
	}
	if OverallMarkdown(nil) != "" {
		t.Fatal("overall table of no sets is not empty")
	}
}
