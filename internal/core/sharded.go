package core

import (
	"idde/internal/model"
	"idde/internal/shard"
)

// solveSharded delegates a Shards>0 solve to internal/shard, mapping
// the Options surface onto shard.Config and the shard.Result back onto
// the core Result. The option resolution (zero-value Game → defaults,
// Obs injection) happens inside shard.Solve with the same rules as the
// global path, so a Game configuration behaves identically under both
// solvers.
func solveSharded(in *model.Instance, opt Options) *Result {
	sc := scopeOf(opt)
	g := opt.Game
	g.Obs = nil // the shard solver threads scopes per tile itself
	cfg := shard.Config{
		Tiles:             opt.Shards,
		HaloRounds:        opt.ShardHaloRounds,
		Game:              g,
		Placement:         opt.Placement,
		NaiveGreedy:       opt.NaiveGreedy,
		NaiveInterference: opt.NaiveInterference,
		NaiveLatency:      opt.NaiveLatency,
		NoSweepSkip:       opt.NoSweepSkip,
		Obs:               sc,
	}
	sres := shard.Solve(in, cfg)
	res := &Result{
		Strategy:         model.Strategy{Alloc: sres.Alloc, Delivery: sres.Delivery},
		AvgRate:          sres.AvgRate,
		AvgLatency:       in.AvgLatency(sres.Alloc, sres.Delivery),
		Phase1:           sres.Phase1,
		Replicas:         sres.Replicas,
		GainEvaluations:  sres.GainEvaluations,
		LatencyReduction: sres.LatencyReduction,
		Shard:            &sres.Stats,
		Phase1Time:       sres.Phase1Time + sres.SweepTime,
		Phase2Time:       sres.Phase2Time + sres.ReconcileTime,
	}
	publishSolve(sc, res)
	return res
}
