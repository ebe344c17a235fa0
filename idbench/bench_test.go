package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/game"
	"idde/internal/model"
)

func tinyInstanceParams() experiment.Params {
	return experiment.Params{N: 12, M: 150, K: 4, Density: 1.0}
}

// The outside-in global adapter must commit exactly core's move sequence.
func TestTracedGlobalPhase1MatchesCore(t *testing.T) {
	for _, seed := range []uint64{1, 2, 2022} {
		in, err := experiment.BuildInstance(tinyInstanceParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		refAlloc, refStats := core.SolvePhase1(in, opt)
		run := tracedGlobalPhase1(in, opt.Game)
		if run.stats != refStats {
			t.Fatalf("seed %d: stats %+v, core %+v", seed, run.stats, refStats)
		}
		if !equalAlloc(run.alloc, refAlloc) {
			t.Fatalf("seed %d: allocation differs from core.SolvePhase1", seed)
		}
		if run.clk.moves != int64(refStats.Updates) {
			t.Fatalf("seed %d: %d timed moves, %d updates", seed, run.clk.moves, refStats.Updates)
		}
		if run.clk.benefits() < int64(refStats.Evaluations) {
			t.Fatalf("seed %d: %d benefit calls for %d Best calls", seed, run.clk.benefits(), refStats.Evaluations)
		}
	}
}

// The outside-in tile adapter must reproduce the sharded solve's tile
// games.
func TestTracedTilePhase1MatchesShard(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 24, M: 300, K: 4, Density: 1.0}, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Shards = 4
	res := core.Solve(in, opt)
	run := tracedTilePhase1(in, opt.Shards, game.DefaultOptions())
	if run.stats != res.Phase1 {
		t.Fatalf("tile stats %+v, sharded solve %+v", run.stats, res.Phase1)
	}
}

// tracedBuild must build the same instance as experiment.BuildInstance.
func TestTracedBuildMatchesBuildInstance(t *testing.T) {
	p := tinyInstanceParams()
	p.RegionScale = 1.5
	want, err := experiment.BuildInstance(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tracedBuild(p, 5, newResult())
	if err != nil {
		t.Fatal(err)
	}
	if got.LayoutStats() != want.LayoutStats() {
		t.Fatalf("layout %+v, want %+v", got.LayoutStats(), want.LayoutStats())
	}
	a, b := core.Solve(got, core.DefaultOptions()), core.Solve(want, core.DefaultOptions())
	if a.AvgRate != b.AvgRate || a.AvgLatency != b.AvgLatency {
		t.Fatalf("solve differs: %v/%v vs %v/%v", a.AvgRate, a.AvgLatency, b.AvgRate, b.AvgLatency)
	}
}

// shrink scales a workload down for a smoke run, under a name
// golden.json does not record.
func shrink(w workload) workload {
	w.name += "-smoke"
	w.params.N = max(w.params.N/10, 12)
	w.params.M /= 10
	w.soak = 2
	return w
}

// Every workload, shrunk, runs untraced and traced with all metrics and
// every gate passing.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		w := shrink(w)
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			for trace, table := range [][]metricSpec{endToEnd, perLayer} {
				var r *result
				var err error
				if trace == 1 {
					r, err = runTraced(w, 3, &log)
				} else {
					r, err = runUntraced(w, 3, 0, &log)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(r.gateErrs) > 0 && !(trace == 1 && onlyTimingGate(r.gateErrs)) {
					t.Fatalf("trace=%d gates failed: %v", trace, r.gateErrs)
				}
				if err := r.complete(table); err != nil {
					t.Fatalf("trace=%d: %v", trace, err)
				}
				if r.attempted < 1 || r.failed != 0 {
					t.Fatalf("trace=%d: attempted %d failed %d", trace, r.attempted, r.failed)
				}
			}
		})
	}
}

// onlyTimingGate reports whether the only failed gate is the layer-sum
// timing check, which a shrunk instance (a few milliseconds per solve)
// cannot resolve.
func onlyTimingGate(errs []string) bool {
	return len(errs) == 1 && strings.HasPrefix(errs[0], "layer sum")
}

// The serving workload at a recorded seed reproduces golden.json, and a
// differing record fails the gate.
func TestGoldenGate(t *testing.T) {
	w, _ := workloadByName("serve-outage")
	in, err := build(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := runRound(w, []*model.Instance{in}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	checkGolden(r, w, 1, rd.ex())
	if len(r.gateErrs) != 0 {
		t.Fatalf("recorded seed fails its golden entry: %v", r.gateErrs)
	}
	ex := rd.ex()
	ex.Moves++
	checkGolden(r, w, 1, ex)
	if len(r.gateErrs) != 1 || r.failed != 1 {
		t.Fatalf("a differing record passed the golden gate")
	}
}

// An unknown workload exits nonzero without a result line.
func TestUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// BENCHMARK.json must name exactly the workloads and metric tables the
// program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }
		PerLayer  []struct{ Name, Unit string }
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for key, dst := range map[string]any{"workloads": &spec.Workloads, "end_to_end": &spec.EndToEnd, "per_layer": &spec.PerLayer} {
		if err := json.Unmarshal(raw[key], dst); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s[%d] = %s (%s), program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
