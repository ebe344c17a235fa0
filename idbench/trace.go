package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/placement"
	"idde/internal/radio"
	"idde/internal/repair"
	"idde/internal/rng"
	"idde/internal/serve"
	"idde/internal/shard"
	"idde/internal/topology"
	workloadgen "idde/internal/workload"
)

// perLayer lists the metrics of a traced run. Layers a workload does not
// run (sharding on the global path) report zero.
var perLayer = []metricSpec{
	{"topology.generate_s", "s"},
	{"workload.generate_s", "s"},
	{"model.new_s", "s"},
	{"model.gain_nnz", "count"},
	{"model.layout_mb", "MB"},

	{"game.run_s", "s"},
	{"game.best_busy_s", "s"},
	{"game.best_calls", "count"},
	{"model.benefit_calls", "count"},
	{"model.move_s", "s"},
	{"game.moves", "count"},
	{"game.affected_s", "s"},
	{"game.other_s", "s"},
	{"game.rounds", "count"},
	{"game.frozen", "count"},
	{"model.agg_mb", "MB"},

	{"placement.deliver_ms", "ms"},
	{"placement.gain_evals", "count"},
	{"placement.replicas", "count"},

	{"model.check_ms", "ms"},
	{"model.evaluate_ms", "ms"},
	{"model.avg_latency_ms", "ms"},

	{"shard.partition_s", "s"},
	{"shard.tile_phase1_s", "s"},
	{"shard.sweep_s", "s"},
	{"shard.tile_phase2_s", "s"},
	{"shard.reconcile_s", "s"},
	{"shard.sweep_updates", "count"},
	{"shard.sweep_evals", "count"},
	{"shard.skipped_tiles", "count"},
	{"shard.halo_users", "count"},
	{"shard.rate_gap_pct", "%"},
	{"shard.latency_gap_pct", "%"},

	{"serve.round_ms", "ms"},
	{"serve.retries", "count"},
	{"serve.failovers", "count"},
	{"serve.cloud_fallbacks", "count"},
	{"serve.breaker_opens", "count"},
	{"serve.replans", "count"},
	{"serve.alloc_b_per_req", "B/req"},
	{"serve.p99_ms", "ms"},
	{"serve.degraded_frac", "fraction"},
	{"serve.failed_frac", "fraction"},
	{"serve.heal_rounds", "count"},

	{"repair.replan_ms", "ms"},
	{"repair.moves", "count"},
	{"repair.replaced_replicas", "count"},

	{"trace.solve_1p_s", "s"},
	{"trace.layer_sum_s", "s"},
	{"trace.unexplained_s", "s"},
	{"trace.overhead_pct", "%"},
}

// layerSlack bounds the unexplained remainder at GOMAXPROCS=1: |untraced
// solve − layer sum net of the calibrated tracing cost| / untraced solve.
// It covers the run-to-run noise of timed solves on a shared host.
const layerSlack = 0.25

// layerMin is the least CPU time each side of the layer-sum check runs.
const layerMin = time.Second

func runTraced(w workload, seed uint64, log io.Writer) (*result, error) {
	r := newResult()
	in, err := tracedBuild(w.params, seed, r)
	if err != nil {
		return nil, err
	}

	// The workload's own solve and soak, gated exactly as an untraced run.
	o, err := runRound(w, []*model.Instance{in}, seed, 0)
	r.attempted += int64(len(o.solveS))
	if err != nil {
		r.failed++
		r.fail("%v", err)
		return r, nil
	}
	r.attempted += o.soak.Issued
	r.failed += o.soak.Dropped + o.soak.DeadlineExceeded
	ex := o.ex()
	r.exact = &ex
	checkGolden(r, w, seed, ex)
	st := o.res.Strategy
	r.set("model.avg_latency_ms", ex.AvgLatency)
	reportSoak(r, o.soak)

	def := core.DefaultOptions()
	if w.shards == 0 {
		tracePhase1Global(r, in, def, o.res)
	} else {
		tracePhase1Tiles(r, in, w.shards, def, o.res)
	}
	traceShard(r, w, in, o.res)
	traceLayerSum(r, w, in)
	fmt.Fprintf(log, "%s: phase 1 and layer sum traced\n", w.name)

	// Phase 2 alone on the workload's allocation, repeated until its time
	// is resolvable.
	var pres placement.Result
	r.samples["placement.deliver_ms"] = timeReps(3, 300*time.Millisecond, func() {
		_, pres = core.SolveDeliveryOpt(in, st.Alloc, def)
	}, 1e3)
	r.set("placement.deliver_ms", median(r.samples["placement.deliver_ms"]))
	r.set("placement.gain_evals", float64(pres.Evaluations))
	r.set("placement.replicas", float64(len(pres.Chosen)))

	var checkErr error
	r.samples["model.check_ms"] = timeReps(3, 200*time.Millisecond, func() { checkErr = in.Check(st) }, 1e3)
	if checkErr != nil {
		r.fail("Instance.Check: %v", checkErr)
	}
	r.set("model.check_ms", median(r.samples["model.check_ms"]))
	r.samples["model.evaluate_ms"] = timeReps(3, 200*time.Millisecond, func() { in.Evaluate(st) }, 1e3)
	r.set("model.evaluate_ms", median(r.samples["model.evaluate_ms"]))

	traceSoak(r, w, in, st, seed, ex.OutcomeHash)
	if err := traceRepair(r, in, st); err != nil {
		r.fail("%v", err)
	}
	return r, nil
}

// tracedBuild reproduces experiment.BuildInstance step by step, with the
// same rng splits, timing each layer. The median of three builds is
// reported; the last instance is returned.
func tracedBuild(p experiment.Params, seed uint64, r *result) (*model.Instance, error) {
	var in *model.Instance
	for rep := 0; rep < 3; rep++ {
		s := rng.New(seed)
		cfg := topology.DefaultGen(p.N, p.M, p.Density)
		if p.RegionScale > 0 && p.RegionScale != 1 {
			cfg.Region.MaxX = cfg.Region.MinX + cfg.Region.Width()*p.RegionScale
			cfg.Region.MaxY = cfg.Region.MinY + cfg.Region.Height()*p.RegionScale
		}
		t0 := time.Now()
		top, err := topology.Generate(cfg, s.Split("topology"))
		if err != nil {
			return nil, fmt.Errorf("generate topology: %w", err)
		}
		t1 := time.Now()
		wl, err := workloadgen.Generate(workloadgen.DefaultGen(p.K), p.N, p.M, s.Split("workload"))
		if err != nil {
			return nil, fmt.Errorf("generate workload: %w", err)
		}
		t2 := time.Now()
		if in, err = model.New(top, wl, radio.Default()); err != nil {
			return nil, fmt.Errorf("build model: %w", err)
		}
		t3 := time.Now()
		r.samples["topology.generate_s"] = append(r.samples["topology.generate_s"], t1.Sub(t0).Seconds())
		r.samples["workload.generate_s"] = append(r.samples["workload.generate_s"], t2.Sub(t1).Seconds())
		r.samples["model.new_s"] = append(r.samples["model.new_s"], t3.Sub(t2).Seconds())
	}
	for _, k := range []string{"topology.generate_s", "workload.generate_s", "model.new_s"} {
		r.set(k, median(r.samples[k]))
	}
	ls := in.LayoutStats()
	r.set("model.gain_nnz", float64(ls.NNZ))
	r.set("model.layout_mb", float64(ls.Bytes)/(1<<20))
	return in, nil
}

// reportPhase1 publishes the layer clock of a traced Phase 1 taken at
// the default GOMAXPROCS.
func reportPhase1(r *result, run *phase1Run) {
	r.set("game.run_s", run.runT.Seconds())
	r.set("game.best_busy_s", run.clk.bestBusy().Seconds())
	r.set("game.best_calls", float64(run.stats.Evaluations))
	r.set("model.benefit_calls", float64(run.clk.benefits()))
	r.set("model.move_s", time.Duration(run.clk.moveNs).Seconds())
	r.set("game.moves", float64(run.clk.moves))
	r.set("game.affected_s", time.Duration(run.clk.affectedNs).Seconds())
	r.set("game.rounds", float64(run.stats.Rounds))
	r.set("game.frozen", float64(run.stats.Frozen))
	r.set("model.agg_mb", run.aggMB)
}

// otherTime is the engine time outside every adapter call: heap, pool
// handoff and round bookkeeping. Meaningful at GOMAXPROCS=1, where Best
// calls do not overlap.
func otherTime(run *phase1Run) time.Duration {
	return run.runT - run.clk.bestBusy() - time.Duration(run.clk.moveNs) - time.Duration(run.clk.affectedNs)
}

// tracePhase1Global runs the outside-in mirror of core's Phase 1 and
// reports it only if its allocation and stats equal those of the
// workload's core.Solve, whose Phase 1 is core.SolvePhase1's path (the
// benchmark's tests compare the mirror with core.SolvePhase1 itself).
func tracePhase1Global(r *result, in *model.Instance, opt core.Options, res *core.Result) {
	run := tracedGlobalPhase1(in, opt.Game)
	if !equalAlloc(run.alloc, res.Strategy.Alloc) || run.stats != res.Phase1 {
		r.fail("phase 1 identity gate: traced adapter stats %+v differ from core.Solve's %+v (or allocations differ)", run.stats, res.Phase1)
		return
	}
	reportPhase1(r, run)
}

// tracePhase1Tiles runs the outside-in mirror of the sharded tile games
// and reports it only if its summed stats equal the solve's.
func tracePhase1Tiles(r *result, in *model.Instance, tiles int, opt core.Options, res *core.Result) {
	run := tracedTilePhase1(in, tiles, opt.Game)
	if run.stats != res.Phase1 {
		r.fail("phase 1 identity gate: traced tile games %+v differ from the sharded solve %+v", run.stats, res.Phase1)
		return
	}
	reportPhase1(r, run)
}

// shardConfig is the configuration core.Solve hands to shard.Solve for
// the workload's options.
func shardConfig(opt core.Options) shard.Config {
	return shard.Config{
		Tiles:             opt.Shards,
		HaloRounds:        opt.ShardHaloRounds,
		Game:              opt.Game,
		Placement:         opt.Placement,
		NaiveGreedy:       opt.NaiveGreedy,
		NaiveInterference: opt.NaiveInterference,
		NaiveLatency:      opt.NaiveLatency,
		CohortBatch:       opt.CohortBatch,
		AggRowBudget:      opt.AggRowBudget,
		NoSweepSkip:       opt.NoSweepSkip,
	}
}

// traceShard reports the sharding stages of a direct shard.Solve,
// identity-checked against the workload's core.Solve, and the quality
// lost to the split against the global solve of the same instance.
func traceShard(r *result, w workload, in *model.Instance, res *core.Result) {
	names := []string{"shard.partition_s", "shard.tile_phase1_s", "shard.sweep_s", "shard.tile_phase2_s",
		"shard.reconcile_s", "shard.sweep_updates", "shard.sweep_evals", "shard.skipped_tiles",
		"shard.halo_users", "shard.rate_gap_pct", "shard.latency_gap_pct"}
	if w.shards == 0 {
		for _, n := range names {
			r.set(n, 0)
		}
		return
	}
	opt := w.solveOptions()
	r.samples["shard.partition_s"] = timeReps(3, 200*time.Millisecond, func() { shard.MakePartition(in, opt.Shards) }, 1)
	sres := shard.Solve(in, shardConfig(opt))
	if !equalAlloc(sres.Alloc, res.Strategy.Alloc) || sres.AvgRate != res.AvgRate || sres.Phase1 != res.Phase1 ||
		sres.Replicas != res.Replicas || sres.Stats != *res.Shard {
		r.fail("shard identity gate: direct shard.Solve differs from core.Solve with Shards=%d", opt.Shards)
		return
	}
	r.set("shard.partition_s", median(r.samples["shard.partition_s"]))
	r.set("shard.tile_phase1_s", sres.Phase1Time.Seconds())
	r.set("shard.sweep_s", sres.SweepTime.Seconds())
	r.set("shard.tile_phase2_s", sres.Phase2Time.Seconds())
	r.set("shard.reconcile_s", sres.ReconcileTime.Seconds())
	r.set("shard.sweep_updates", float64(sres.Stats.SweepUpdates))
	r.set("shard.sweep_evals", float64(sres.Stats.SweepEvaluations))
	r.set("shard.skipped_tiles", float64(sres.Stats.SweepSkippedTiles))
	r.set("shard.halo_users", float64(sres.Stats.HaloUsers))

	global := core.Solve(in, core.DefaultOptions())
	r.set("shard.rate_gap_pct", 100*float64(global.AvgRate-res.AvgRate)/float64(global.AvgRate))
	r.set("shard.latency_gap_pct", 100*float64(res.AvgLatency-global.AvgLatency)/float64(global.AvgLatency))
	r.notes = append(r.notes, fmt.Sprintf("global solve of the same instance: rate %.6g MB/s, latency %.6g ms, %d frozen",
		float64(global.AvgRate), global.AvgLatency.Millis(), global.Phase1.Frozen))
}

// traceLayerSum checks, at GOMAXPROCS=1, that the traced layers, net of
// the calibrated cost of the tracing's clock reads, add up to the
// untraced solve within layerSlack. Both sides are process CPU time (see
// cpuTime). It reports game.other_s, the tracing overhead (traced minus
// untraced) and the unexplained remainder (untraced minus the net
// layers).
func traceLayerSum(r *result, w workload, in *model.Instance) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	opt := w.solveOptions()
	// Both sides repeat the same number of times, enough for a
	// millisecond-scale solve to outweigh the clock's granularity.
	// Each side starts from a collected heap, so neither pays for the
	// other's garbage.
	runtime.GC()
	n := 0
	c0 := cpuTime()
	for n == 0 || cpuTime()-c0 < layerMin {
		core.Solve(in, opt)
		n++
	}
	untraced := (cpuTime() - c0).Seconds() / float64(n)

	var sum, other time.Duration
	var clockPairs int64
	runtime.GC()
	for i := 0; i < n; i++ {
		var s time.Duration
		if w.shards == 0 {
			s, other, clockPairs = tracedGlobalSolve(in, opt)
		} else {
			s = shardSolveCPU(in, opt)
		}
		sum += s
	}
	if w.shards != 0 {
		other = otherTime(tracedTilePhase1(in, opt.Shards, opt.Game))
	}
	layers := sum.Seconds() / float64(n)
	net := layers - clockPairCost().Seconds()*float64(clockPairs)
	r.set("trace.solve_1p_s", untraced)
	r.set("trace.layer_sum_s", layers)
	r.set("trace.unexplained_s", untraced-net)
	r.set("trace.overhead_pct", 100*(layers-untraced)/untraced)
	r.set("game.other_s", other.Seconds())
	if gap := math.Abs(untraced-net) / untraced; gap > layerSlack {
		r.fail("layer sum %.4fs net of tracing (%.4fs traced) differs from the untraced solve %.4fs by %.1f%% (slack %.0f%%)",
			net, layers, untraced, 100*gap, 100*layerSlack)
	}
}

// tracedGlobalSolve runs core.Solve's global pipeline from the outside
// and returns the CPU time of its layers (ledger set-up with the traced
// Phase 1, Phase 2, evaluation), the engine's other time, and how many
// clock pairs the tracing read.
func tracedGlobalSolve(in *model.Instance, opt core.Options) (sum, other time.Duration, clockPairs int64) {
	c0 := cpuTime()
	run := tracedGlobalPhase1(in, opt.Game)
	c1 := cpuTime()
	d, _ := core.SolveDeliveryOpt(in, run.alloc, opt)
	c2 := cpuTime()
	run.ledger.AvgRate()
	in.AvgLatency(run.alloc, d)
	c3 := cpuTime()
	sum = (c1 - c0) + (c2 - c1) + (c3 - c2)
	return sum, otherTime(run), int64(run.stats.Evaluations) + 2*run.clk.moves
}

// shardSolveCPU returns the CPU time of the sharded pipeline's layers:
// shard.Solve (partition, tile games, sweeps, tile Phase 2, reconcile)
// and core's evaluation.
func shardSolveCPU(in *model.Instance, opt core.Options) time.Duration {
	c0 := cpuTime()
	sres := shard.Solve(in, shardConfig(opt))
	c1 := cpuTime()
	in.AvgLatency(sres.Alloc, sres.Delivery)
	return (c1 - c0) + (cpuTime() - c1)
}

// clockPairCost is the CPU cost of one time.Now/time.Since pair, the
// per-call price of the outside-in tracing.
func clockPairCost() time.Duration {
	const n = 1 << 18
	c0 := cpuTime()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	return (cpuTime() - c0) / n
}

// reportSoak publishes the exact outcome metrics of the workload's soak.
func reportSoak(r *result, rep *serve.SoakReport) {
	r.set("serve.p99_ms", maxPhaseP99(rep))
	r.set("serve.degraded_frac", float64(rep.Degraded)/float64(rep.Issued))
	r.set("serve.failed_frac", float64(rep.Dropped+rep.DeadlineExceeded)/float64(rep.Issued))
	r.set("serve.heal_rounds", float64(rep.MaxDegradedStreak))
	r.set("serve.retries", float64(rep.Retries))
	r.set("serve.failovers", float64(rep.Failovers))
	r.set("serve.cloud_fallbacks", float64(rep.CloudFallbacks))
	r.set("serve.breaker_opens", float64(rep.BreakerOpens))
	r.set("serve.replans", float64(rep.Replans))
}

// traceSoak re-runs the workload's soak with the heap accounted, for the
// per-round wall time and the bytes allocated per request.
func traceSoak(r *result, w workload, in *model.Instance, st model.Strategy, seed uint64, hash string) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := serve.Run(context.Background(), in, st, soakOptions(in, st, seed, w.soak, w.outage))
	runtime.ReadMemStats(&after)
	r.attempted += rep.Issued
	if err != nil {
		r.failed++
		r.fail("soak: %v", err)
		return
	}
	if rep.OutcomeHash != hash {
		r.failed++
		r.fail("soak outcome hash %s differs from the run's first %s", rep.OutcomeHash, hash)
	}
	r.set("serve.round_ms", 1e3*rep.WallSeconds/float64(rep.Rounds))
	r.set("serve.alloc_b_per_req", float64(after.TotalAlloc-before.TotalAlloc)/float64(rep.Issued))
}

// traceRepair times one re-plan: repair.RepairDegraded of the workload's
// strategy after an outage of its most-fetched-from server.
func traceRepair(r *result, in *model.Instance, st model.Strategy) error {
	deg, err := repair.Degrade(in, repair.Degradation{FailedServers: []int{serve.PopularSource(in, st)}})
	if err != nil {
		return fmt.Errorf("degrade: %w", err)
	}
	var rep *repair.Report
	var rerr error
	r.samples["repair.replan_ms"] = timeReps(3, 300*time.Millisecond, func() {
		_, rep, rerr = repair.RepairDegraded(in, deg, st, repair.Options{Waves: 2})
	}, 1e3)
	if rerr != nil {
		return fmt.Errorf("repair: %w", rerr)
	}
	r.set("repair.replan_ms", median(r.samples["repair.replan_ms"]))
	r.set("repair.moves", float64(rep.Moves))
	r.set("repair.replaced_replicas", float64(rep.ReplacedReplicas))
	return nil
}

// timeReps calls fn at least minReps times and until minDur has passed
// (at most 50 calls), returning each call's duration in seconds × scale.
func timeReps(minReps int, minDur time.Duration, fn func(), scale float64) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < minReps || (time.Since(start) < minDur && len(out) < 50) {
		t0 := time.Now()
		fn()
		out = append(out, time.Since(t0).Seconds()*scale)
	}
	return out
}

func equalAlloc(a, b model.Allocation) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}
