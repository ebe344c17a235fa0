package idde

// One benchmark per table/figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md.
// Each figure bench executes a full sweep over the figure's x axis with
// one replica per iteration (the paper averages 50 replicas; use
// cmd/iddebench -reps 50 for the full-budget regeneration) and reports
// the headline aggregate via b.ReportMetric so the figure's shape is
// visible straight from `go test -bench`.

import (
	"fmt"
	"testing"

	"idde/internal/baseline"
	"idde/internal/cloudlat"
	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/experiment"
	"idde/internal/game"
	"idde/internal/mobility"
	"idde/internal/model"
	"idde/internal/online"
	"idde/internal/placement"
	"idde/internal/power"
	"idde/internal/repair"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/vendor"
	"idde/internal/workload"
)

// benchConfig is the reduced-budget harness configuration used by the
// figure benches: one replica, deterministic IDDE-IP at a fixed
// evaluation budget.
func benchConfig() experiment.Config {
	return experiment.Config{
		Reps: 1,
		Seed: 2022,
		Approaches: []baseline.Approach{
			&baseline.IDDEIP{MaxIters: 1500, Anneal: true},
			baseline.NewIDDEG(),
			baseline.NewSAA(),
			baseline.NewCDP(),
			baseline.NewDUPG(),
		},
	}
}

func benchSet(b *testing.B, id int) {
	b.Helper()
	set, err := experiment.SetByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	var last *experiment.SetResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := experiment.RunSet(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = sr
	}
	b.StopTimer()
	// Surface the figure's headline aggregates as custom metrics.
	b.ReportMetric(meanAcross(last, "IDDE-G", experiment.RateMetric), "IDDEG-rate-MBps")
	b.ReportMetric(meanAcross(last, "IDDE-G", experiment.LatencyMetric), "IDDEG-lat-ms")
	b.ReportMetric(last.Advantage("SAA", experiment.RateMetric)*100, "rate-adv-vs-SAA-%")
	b.ReportMetric(last.Advantage("DUP-G", experiment.LatencyMetric)*100, "lat-adv-vs-DUPG-%")
}

func meanAcross(sr *experiment.SetResult, approach string, m experiment.Metric) float64 {
	if sr == nil || len(sr.Points) == 0 {
		return 0
	}
	total := 0.0
	for _, pt := range sr.Points {
		mm := pt.ByApproach[approach]
		switch m {
		case experiment.RateMetric:
			total += mm.Rate.Mean
		case experiment.LatencyMetric:
			total += mm.LatencyMs.Mean
		case experiment.TimeMetric:
			total += mm.TimeSec.Mean
		}
	}
	return total / float64(len(sr.Points))
}

// BenchmarkFig1LatencyProbe regenerates Figure 1: the hourly-for-a-week
// edge vs. cloud latency probe.
func BenchmarkFig1LatencyProbe(b *testing.B) {
	var series []cloudlat.Series
	for i := 0; i < b.N; i++ {
		series = cloudlat.Collect(cloudlat.DefaultTargets(), rng.New(uint64(i)))
	}
	b.StopTimer()
	b.ReportMetric(series[0].Mean.Millis(), "edge-ms")
	b.ReportMetric(series[1].Mean.Millis(), "singapore-ms")
	b.ReportMetric(series[2].Mean.Millis(), "london-ms")
	b.ReportMetric(series[3].Mean.Millis(), "frankfurt-ms")
}

// BenchmarkFig3Set1 regenerates Figure 3 (R_avg and L_avg vs. N).
func BenchmarkFig3Set1(b *testing.B) { benchSet(b, 1) }

// BenchmarkFig4Set2 regenerates Figure 4 (R_avg and L_avg vs. M).
func BenchmarkFig4Set2(b *testing.B) { benchSet(b, 2) }

// BenchmarkFig5Set3 regenerates Figure 5 (R_avg and L_avg vs. K).
func BenchmarkFig5Set3(b *testing.B) { benchSet(b, 3) }

// BenchmarkFig6Set4 regenerates Figure 6 (R_avg and L_avg vs. density).
func BenchmarkFig6Set4(b *testing.B) { benchSet(b, 4) }

// BenchmarkFig7ComputationTime regenerates Figure 7: per-approach
// strategy formulation time at the Set #2 midpoint (N=30, M=200, K=5).
func BenchmarkFig7ComputationTime(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 30, M: 200, K: 5, Density: 1.0}, 2022)
	if err != nil {
		b.Fatal(err)
	}
	for _, ap := range benchConfig().Approaches {
		b.Run(ap.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ap.Solve(in, uint64(i))
			}
		})
	}
}

// BenchmarkTable2InstanceGeneration measures building the randomized
// instances behind Table 2's largest setting.
func BenchmarkTable2InstanceGeneration(b *testing.B) {
	p := experiment.Params{N: 50, M: 350, K: 8, Density: 3.0}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BuildInstance(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5 design choices) ---

// BenchmarkAblationGamePolicy compares the paper's winner-takes-all
// update protocol against round-robin best response (same fixed points,
// different convergence cost).
func BenchmarkAblationGamePolicy(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 30, M: 200, K: 5, Density: 1.0}, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []game.Policy{game.WinnerTakesAll, game.RoundRobin} {
		b.Run(policy.String(), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Game.Policy = policy
			var updates int
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, opt)
				updates = res.Phase1.Updates
			}
			b.ReportMetric(float64(updates), "updates")
		})
	}
}

// BenchmarkAblationGreedyOracle compares the literal Algorithm 1
// Phase 2 loop against the lazy (CELF) evaluator.
func BenchmarkAblationGreedyOracle(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 40, M: 250, K: 8, Density: 1.5}, 11)
	if err != nil {
		b.Fatal(err)
	}
	alloc := core.Solve(in, core.DefaultOptions()).Strategy.Alloc
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"naive", true}, {"lazy-celf", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var evals int
			for i := 0; i < b.N; i++ {
				_, pres := core.SolveDelivery(in, alloc, mode.naive)
				evals = pres.Evaluations
			}
			b.ReportMetric(float64(evals), "oracle-evals")
		})
	}
}

// BenchmarkAblationParallelScan compares sequential and parallel
// best-response scans in Phase 1.
func BenchmarkAblationParallelScan(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 40, M: 350, K: 5, Density: 1.0}, 13)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []struct {
		name string
		on   bool
	}{{"sequential", false}, {"parallel", true}} {
		b.Run(par.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Game.Parallel = par.on
			for i := 0; i < b.N; i++ {
				core.Solve(in, opt)
			}
		})
	}
}

// BenchmarkLedgerBestResponse measures a single user's best-response
// scan — the inner loop of the IDDE-U game.
func BenchmarkLedgerBestResponse(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 30, M: 300, K: 5, Density: 1.0}, 17)
	if err != nil {
		b.Fatal(err)
	}
	l := model.NewLedger(in, model.NewAllocation(in.M()))
	s := rng.New(3)
	for j := 0; j < in.M(); j++ {
		vs := in.Top.Coverage[j]
		i := vs[s.IntN(len(vs))]
		l.Move(j, model.Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % in.M()
		for _, sv := range in.Top.Coverage[j] {
			for x := 0; x < in.Top.Servers[sv].Channels; x++ {
				_ = l.Benefit(j, model.Alloc{Server: sv, Channel: x})
			}
		}
	}
}

// BenchmarkLatencyGainOracle measures the Phase 2 marginal-gain oracle.
func BenchmarkLatencyGainOracle(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 30, M: 300, K: 8, Density: 1.0}, 19)
	if err != nil {
		b.Fatal(err)
	}
	ls := model.NewLatencyState(in, model.NewAllocation(in.M()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ls.GainOf(i%in.N(), i%in.K())
	}
}

// BenchmarkAblationPowerControl measures the optional transmit-power
// pass (extension; see internal/power) and reports its rate uplift.
func BenchmarkAblationPowerControl(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 15, M: 150, K: 4, Density: 1.0}, 29)
	if err != nil {
		b.Fatal(err)
	}
	alloc := core.Solve(in, core.DefaultOptions()).Strategy.Alloc
	var res *power.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = power.Tune(in, alloc, power.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.AvgRateBefore), "rate-before-MBps")
	b.ReportMetric(float64(res.AvgRateAfter), "rate-after-MBps")
	b.ReportMetric(float64(res.SavedWatts), "saved-W")
}

// BenchmarkMobilityEpochs measures the future-work mobility loop: users
// move, IDDE-G re-solves, replicas migrate.
func BenchmarkMobilityEpochs(b *testing.B) {
	s := rng.New(31)
	top, err := topology.Generate(topology.DefaultGen(15, 100, 1.2), s.Split("top"))
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.Generate(workload.DefaultGen(4), 15, 100, s.Split("wl"))
	if err != nil {
		b.Fatal(err)
	}
	solve := func(in *model.Instance) model.Strategy {
		return core.Solve(in, core.DefaultOptions()).Strategy
	}
	cfg := mobility.Config{Epochs: 5, EpochSeconds: 60, Speed: [2]float64{1, 3}}
	var eps []mobility.Epoch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eps, err = mobility.Simulate(top, wl, solve, cfg, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var mb float64
	for _, ep := range eps {
		mb += ep.MigratedMB
	}
	b.ReportMetric(mb, "migrated-MB")
}

// BenchmarkOnlineJoin measures the incremental cost of one user
// arrival in a loaded online system (extension; see internal/online).
func BenchmarkOnlineJoin(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 15, M: 200, K: 4, Density: 1.0}, 37)
	if err != nil {
		b.Fatal(err)
	}
	sys := online.NewSystem(in, online.DefaultOptions())
	// Preload all but the churn cohort.
	cohort := 32
	for j := cohort; j < in.M(); j++ {
		if _, err := sys.Join(j); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % cohort
		if _, err := sys.Join(j); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := sys.Leave(j); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkVendorCompetition measures a three-vendor draft round
// (extension; see internal/vendor).
func BenchmarkVendorCompetition(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 15, M: 150, K: 6, Density: 1.0}, 41)
	if err != nil {
		b.Fatal(err)
	}
	assign, err := vendor.RandomAssignment(in, 3, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	var res *vendor.Result
	for i := 0; i < b.N; i++ {
		res, err = vendor.Compete(in, assign, vendor.Draft)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res != nil {
		b.ReportMetric(res.SystemLatencyMs, "system-lat-ms")
		b.ReportMetric(res.JainRate, "jain")
	}
}

// BenchmarkFailureRepair measures failure injection plus incremental
// strategy repair (extension; see internal/repair).
func BenchmarkFailureRepair(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 20, M: 150, K: 5, Density: 1.2}, 43)
	if err != nil {
		b.Fatal(err)
	}
	st := core.Solve(in, core.DefaultOptions()).Strategy
	var rep *repair.Report
	for i := 0; i < b.N; i++ {
		f := i % in.N()
		deg, err := repair.FailServer(in, f)
		if err != nil {
			b.Fatal(err)
		}
		_, rep, err = repair.Repair(in, deg, st, f, repair.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep != nil {
		b.ReportMetric(float64(rep.DisplacedUsers), "displaced")
		b.ReportMetric(float64(rep.Moves), "moves")
	}
}

// BenchmarkDESBurst measures discrete-event execution of an IDDE-G
// strategy under a synchronized burst.
func BenchmarkDESBurst(b *testing.B) {
	in, err := experiment.BuildInstance(experiment.Params{N: 30, M: 200, K: 5, Density: 1.0}, 23)
	if err != nil {
		b.Fatal(err)
	}
	st := core.Solve(in, core.DefaultOptions()).Strategy
	b.ResetTimer()
	var rep *des.Report
	for i := 0; i < b.N; i++ {
		rep = des.SimulateStrategy(in, st, units.Seconds(0), rng.New(uint64(i)))
	}
	b.StopTimer()
	b.ReportMetric(rep.Avg.Millis(), "measured-ms")
	b.ReportMetric(rep.AnalyticAvg.Millis(), "analytic-ms")
}

// --- Phase 1 perf-trajectory benches -------------------------------
//
// Micro and ladder benches for `go test -bench`, at scales that stay
// CI-friendly: full-scan/naive reference variants only up to M=500 (a
// reference solve at M=2000 took ~75 s on one core). The repository
// benchmark (idbench/, BENCHMARK.json) is where tracked performance
// numbers come from.

// perfScale builds the Phase 1 ladder instance for M users: N = M/20
// (at least 10), K=5, density 1.0, seed 2022.
func perfScale(b *testing.B, m int) *model.Instance {
	b.Helper()
	n := m / 20
	if n < 10 {
		n = 10
	}
	in, err := experiment.BuildInstance(experiment.Params{N: n, M: m, K: 5, Density: 1.0}, 2022)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkLedgerBenefit measures one Eq. 12 benefit evaluation under
// the incremental interference aggregates versus the naive occupancy
// walk, on an identical random profile. Each pass probes every user
// once; "aggregate" moves every user away and back between passes
// (untimed), so it times the evaluator rather than Benefit memo hits,
// which "memo-hit" times.
func BenchmarkLedgerBenefit(b *testing.B) {
	for _, m := range []int{100, 500, 2000} {
		in := perfScale(b, m)
		s := rng.New(77)
		l := model.NewLedger(in, model.NewAllocation(in.M()))
		for j := 0; j < in.M(); j++ {
			if vs := in.Top.Coverage[j]; len(vs) > 0 {
				i := vs[s.IntN(len(vs))]
				l.Move(j, model.Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
			}
		}
		for _, mode := range []struct {
			name               string
			naive, invalidated bool
		}{{"aggregate", false, true}, {"memo-hit", false, false}, {"naive", true, false}} {
			b.Run(fmt.Sprintf("%s/M=%d", mode.name, m), func(b *testing.B) {
				l.SetNaiveInterference(mode.naive)
				// Materialize aggregate rows outside the timer.
				for j := 0; j < in.M(); j++ {
					if vs := in.Top.Coverage[j]; len(vs) > 0 {
						_ = l.Benefit(j, model.Alloc{Server: vs[0], Channel: 0})
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % in.M()
					if j == 0 && mode.invalidated {
						b.StopTimer()
						for u := 0; u < in.M(); u++ {
							cur := l.Current(u)
							l.Move(u, model.Unallocated)
							l.Move(u, cur)
						}
						b.StartTimer()
					}
					vs := in.Top.Coverage[j]
					if len(vs) == 0 {
						continue
					}
					sv := vs[i%len(vs)]
					_ = l.Benefit(j, model.Alloc{Server: sv, Channel: i % in.Top.Servers[sv].Channels})
				}
			})
		}
		l.SetNaiveInterference(false)
	}
}

// BenchmarkGameRun measures the full Phase 1 best-response dynamics for
// both policies with and without the dirty-set scheduler (aggregate
// ledger on both sides, so only scheduling differs).
func BenchmarkGameRun(b *testing.B) {
	for _, m := range []int{100, 500} {
		in := perfScale(b, m)
		for _, policy := range []game.Policy{game.WinnerTakesAll, game.RoundRobin} {
			for _, mode := range []struct {
				name     string
				fullScan bool
			}{{"dirty-set", false}, {"full-scan", true}} {
				b.Run(fmt.Sprintf("%s/%s/M=%d", policy, mode.name, m), func(b *testing.B) {
					opt := core.DefaultOptions()
					opt.Game.Policy = policy
					opt.Game.FullScan = mode.fullScan
					var st game.Stats
					for i := 0; i < b.N; i++ {
						_, st = core.SolvePhase1(in, opt)
					}
					b.ReportMetric(float64(st.Updates), "updates")
					b.ReportMetric(float64(st.Evaluations), "evals")
				})
			}
		}
	}
}

// BenchmarkPhase1Solve is the headline trajectory: the optimized engine
// across the Phase 1 ladder against the literal-Algorithm-1 reference
// at the CI-affordable scales.
func BenchmarkPhase1Solve(b *testing.B) {
	cases := []struct {
		name string
		m    int
		opt  core.Options
	}{
		{"optimized/M=100", 100, core.DefaultOptions()},
		{"optimized/M=500", 500, core.DefaultOptions()},
		{"optimized/M=2000", 2000, core.DefaultOptions()},
		{"reference/M=100", 100, core.ReferenceOptions()},
		{"reference/M=500", 500, core.ReferenceOptions()},
	}
	for _, c := range cases {
		in := perfScale(b, c.m)
		b.Run(c.name, func(b *testing.B) {
			var st game.Stats
			for i := 0; i < b.N; i++ {
				_, st = core.SolvePhase1(in, c.opt)
			}
			b.ReportMetric(float64(st.Updates), "updates")
			b.ReportMetric(float64(st.Evaluations), "evals")
		})
	}
}

// --- Phase 2 perf-trajectory benches -------------------------------
//
// The benches below cover the request-heavy ladder (M/N = 40) through
// `go test -bench` at CI-affordable scales.

// perfScale2 builds the Phase 2 ladder instance for M users along with
// its Phase 1 equilibrium allocation (solved outside every timer).
func perfScale2(b *testing.B, m int) (*model.Instance, model.Allocation) {
	b.Helper()
	n := m / 40
	if n < 10 {
		n = 10
	}
	in, err := experiment.BuildInstance(experiment.Params{N: n, M: m, K: 5, Density: 1.0}, 2022)
	if err != nil {
		b.Fatal(err)
	}
	alloc, _ := core.SolvePhase1(in, core.DefaultOptions())
	return in, alloc
}

// BenchmarkLatencyGain measures one Eq. 17 marginal-gain evaluation
// under the cohort oracle versus the per-request reference walk, on an
// identical pre-commit state.
func BenchmarkLatencyGain(b *testing.B) {
	for _, m := range []int{400, 2000} {
		in, alloc := perfScale2(b, m)
		for _, mode := range []struct {
			name string
			ls   model.DeliveryOracle
		}{
			{"cohort", model.NewCohortLatencyState(in, alloc, nil)},
			{"naive", model.NewLatencyState(in, alloc)},
		} {
			b.Run(fmt.Sprintf("%s/M=%d", mode.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = mode.ls.GainOf(i%in.N(), i%in.K())
				}
			})
		}
	}
}

// BenchmarkPhase2Solve is the Phase 2 headline trajectory: the
// optimized engine (cohort oracle + parallel-seeded CELF) against the
// naive-oracle CELF run and the literal re-scan reference at the
// CI-affordable scales.
func BenchmarkPhase2Solve(b *testing.B) {
	seq := placement.NewOptions(placement.Options{})
	cases := []struct {
		name string
		m    int
		opt  core.Options
	}{
		{"optimized/M=400", 400, core.Options{}},
		{"optimized/M=1000", 1000, core.Options{}},
		{"optimized/M=2000", 2000, core.Options{}},
		{"naive-oracle/M=400", 400, core.Options{NaiveLatency: true, Placement: seq}},
		{"naive-oracle/M=1000", 1000, core.Options{NaiveLatency: true, Placement: seq}},
		{"reference/M=400", 400, core.Options{NaiveLatency: true, NaiveGreedy: true, Placement: seq}},
	}
	for _, c := range cases {
		in, alloc := perfScale2(b, c.m)
		b.Run(c.name, func(b *testing.B) {
			var pres placement.Result
			for i := 0; i < b.N; i++ {
				_, pres = core.SolveDeliveryOpt(in, alloc, c.opt)
			}
			b.ReportMetric(float64(len(pres.Chosen)), "replicas")
			b.ReportMetric(float64(pres.Evaluations), "evals")
		})
	}
}
