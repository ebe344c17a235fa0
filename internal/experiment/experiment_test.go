package experiment

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"idde/internal/baseline"
	"idde/internal/cloudlat"
	"idde/internal/rng"
	"idde/internal/stats"
)

func TestSetsMatchTable2(t *testing.T) {
	sets := Sets()
	if len(sets) != 4 {
		t.Fatalf("sets = %d", len(sets))
	}
	s1 := sets[0]
	if s1.Vary != "N" || s1.Values[0] != 20 || s1.Values[len(s1.Values)-1] != 50 ||
		s1.Base.M != 200 || s1.Base.K != 5 || s1.Base.Density != 1.0 {
		t.Errorf("Set #1 wrong: %v", s1)
	}
	s2 := sets[1]
	if s2.Vary != "M" || s2.Values[0] != 50 || s2.Values[len(s2.Values)-1] != 350 || s2.Base.N != 30 {
		t.Errorf("Set #2 wrong: %v", s2)
	}
	s3 := sets[2]
	if s3.Vary != "K" || len(s3.Values) != 7 || s3.Values[0] != 2 || s3.Values[6] != 8 {
		t.Errorf("Set #3 wrong: %v", s3)
	}
	s4 := sets[3]
	if s4.Vary != "density" || s4.Values[0] != 1.0 || s4.Values[len(s4.Values)-1] != 3.0 {
		t.Errorf("Set #4 wrong: %v", s4)
	}
}

func TestParamsAt(t *testing.T) {
	s, err := SetByID(2)
	if err != nil {
		t.Fatal(err)
	}
	p := s.ParamsAt(250)
	if p.M != 250 || p.N != 30 || p.K != 5 || p.Density != 1.0 {
		t.Errorf("ParamsAt = %v", p)
	}
	if _, err := SetByID(9); err == nil {
		t.Error("SetByID(9) succeeded")
	}
}

func TestParamsAtUnknownVaryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Set{Vary: "bogus"}.ParamsAt(1)
}

func TestBuildInstanceDeterministic(t *testing.T) {
	p := Params{N: 12, M: 60, K: 4, Density: 1.2}
	a, err := BuildInstance(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildInstance(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Top.Servers[3] != b.Top.Servers[3] || a.Wl.Items[1] != b.Wl.Items[1] {
		t.Error("BuildInstance not deterministic")
	}
}

// smallConfig keeps harness tests fast: tiny reps, a 500-evaluation
// IDDE-IP.
func smallConfig() Config {
	return Config{
		Reps: 2,
		Seed: 7,
		Approaches: []baseline.Approach{
			&baseline.IDDEIP{MaxIters: 500},
			baseline.NewIDDEG(),
			baseline.NewSAA(),
			baseline.NewCDP(),
			baseline.NewDUPG(),
		},
	}
}

func TestRunSetShapeAndAggregation(t *testing.T) {
	set := Set{ID: 1, Vary: "N", Values: []float64{10, 15}, Base: Params{M: 60, K: 3, Density: 1.0}}
	sr, err := RunSet(set, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 2 {
		t.Fatalf("points = %d", len(sr.Points))
	}
	for _, pt := range sr.Points {
		if len(pt.ByApproach) != 5 {
			t.Fatalf("approaches = %d", len(pt.ByApproach))
		}
		for name, m := range pt.ByApproach {
			if m.Rate.N != 2 || m.LatencyMs.N != 2 || m.TimeSec.N != 2 {
				t.Errorf("%s: wrong rep counts %d/%d/%d", name, m.Rate.N, m.LatencyMs.N, m.TimeSec.N)
			}
			if m.Rate.Mean <= 0 {
				t.Errorf("%s: non-positive rate", name)
			}
			if m.LatencyMs.Mean < 0 {
				t.Errorf("%s: negative latency", name)
			}
		}
	}
}

// TestRunSetDeterministicMetrics runs the same set once on one
// processor and three times on four, and requires every Rate and
// LatencyMs summary field to match bit for bit: the fold must not
// depend on which worker finishes a repetition first, and no approach
// (IDDE-IP at its default evaluation count included) may depend on the
// host's speed. TimeSec is wall time, so only its count is compared.
// The instance is tiny so the 96 default-count IDDE-IP searches stay
// cheap under -race.
func TestRunSetDeterministicMetrics(t *testing.T) {
	set := Set{ID: 3, Vary: "K", Values: []float64{3, 5}, Base: Params{N: 4, M: 12, Density: 1.0}}
	cfg := Config{Reps: 12, Seed: 7, Approaches: baseline.All()}
	run := func(procs int) *SetResult {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sr, err := RunSet(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	same := func(a, b stats.Summary) bool {
		return a.N == b.N && math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
			math.Float64bits(a.Std) == math.Float64bits(b.Std) &&
			math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
			math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
			math.Float64bits(a.CI95) == math.Float64bits(b.CI95)
	}
	ref := run(1)
	for r := 0; r < 3; r++ {
		got := run(4)
		for xi, pt := range ref.Points {
			for name, want := range pt.ByApproach {
				m := got.Points[xi].ByApproach[name]
				if !same(m.Rate, want.Rate) {
					t.Errorf("run %d, x=%v, %s: rate %#v, one-processor run %#v", r, pt.X, name, m.Rate, want.Rate)
				}
				if !same(m.LatencyMs, want.LatencyMs) {
					t.Errorf("run %d, x=%v, %s: latency %#v, one-processor run %#v", r, pt.X, name, m.LatencyMs, want.LatencyMs)
				}
				if m.TimeSec.N != cfg.Reps {
					t.Errorf("run %d, x=%v, %s: %d timings, want %d", r, pt.X, name, m.TimeSec.N, cfg.Reps)
				}
			}
		}
	}
}

func TestRunSetRejectsBadConfig(t *testing.T) {
	set, _ := SetByID(1)
	if _, err := RunSet(set, Config{Reps: 0}); err == nil {
		t.Error("Reps=0 accepted")
	}
}

func TestFormatters(t *testing.T) {
	set := Set{ID: 2, Vary: "M", Values: []float64{40, 80}, Base: Params{N: 10, K: 3, Density: 1.0}}
	sr, err := RunSet(set, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	md := sr.MarkdownTable(RateMetric)
	for _, want := range []string{"| M |", "IDDE-G", "SAA", "CDP", "DUP-G", "IDDE-IP", "| 40 |", "| 80 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	csv := sr.CSV(LatencyMetric)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "M,") {
		t.Errorf("csv header = %q", lines[0])
	}
	if got := len(strings.Split(lines[1], ",")); got != 6 {
		t.Errorf("csv columns = %d", got)
	}
	xs, labels, ys := sr.SeriesFor(LatencyMetric)
	if len(xs) != 2 || len(labels) != 5 || len(ys) != 5 || len(ys[0]) != 2 {
		t.Errorf("SeriesFor shape wrong: %d/%d/%d", len(xs), len(labels), len(ys))
	}
	timing := TimingMarkdown([]*SetResult{sr})
	if !strings.Contains(timing, "| #2 |") {
		t.Errorf("timing table missing set row:\n%s", timing)
	}
	tb2 := Table2Markdown()
	if !strings.Contains(tb2, "| #1 | 20..50 | 200 | 5 | 1.0 |") {
		t.Errorf("Table 2 wrong:\n%s", tb2)
	}
	if !strings.Contains(tb2, "| #4 | 30 | 200 | 5 | 1..3 |") {
		t.Errorf("Table 2 density row wrong:\n%s", tb2)
	}
	f1 := Fig1Markdown(cloudlat.Collect(cloudlat.DefaultTargets(), rng.New(1)))
	for _, want := range []string{"Edge", "Singapore", "London", "Frankfurt", "Edge-to-Cloud"} {
		if !strings.Contains(f1, want) {
			t.Errorf("fig1 missing %q", want)
		}
	}
}

func TestAdvantageOrientation(t *testing.T) {
	set := Set{ID: 1, Vary: "N", Values: []float64{12}, Base: Params{M: 80, K: 4, Density: 1.0}}
	sr, err := RunSet(set, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// IDDE-G must show non-negative advantage over SAA on both axes
	// (the paper's headline claims).
	if adv := sr.Advantage("SAA", RateMetric); adv <= 0 {
		t.Errorf("rate advantage over SAA = %v", adv)
	}
	if adv := sr.Advantage("DUP-G", LatencyMetric); adv <= 0 {
		t.Errorf("latency advantage over DUP-G = %v", adv)
	}
	if adv := sr.Advantage("no-such", RateMetric); adv != 0 {
		t.Errorf("advantage over unknown approach = %v", adv)
	}
}

func TestMetricStrings(t *testing.T) {
	if RateMetric.String() == "" || LatencyMetric.String() == "" || TimeMetric.String() == "" {
		t.Error("metric strings empty")
	}
	if Metric(9).String() == "" {
		t.Error("unknown metric string empty")
	}
}
