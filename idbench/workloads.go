package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"idde/internal/chaos"
	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/rng"
	"idde/internal/serve"
	"idde/internal/units"
)

// workload is one named input set. Every workload formulates a strategy
// with core.Solve and then serves it through the resilient data plane,
// so every end-to-end metric exists on every workload; the instance
// shape, the solver path and the soak decide which layers dominate.
type workload struct {
	name   string
	params experiment.Params
	// shards is core.Options.Shards: 0 keeps the global solve path.
	shards int
	// soak is the virtual length of the serving soak at soakRPS.
	soak units.Seconds
	// outage marks the serving workload: its set-up includes the boot
	// solve and the engine's construction, and its soak runs the outage
	// drill. Otherwise the soak serves the healthy system under hop loss.
	outage bool
	// solvePool is how many seed-derived instances solve_s cycles over
	// (0 means 1: the seed's own instance). A small instance's solve time
	// swings with its draw; a pool keeps solve_s about the instance shape
	// rather than one draw. The soak always serves the seed's own instance.
	solvePool int
}

// soakRPS is the open-loop offered load in virtual requests per second.
const soakRPS = 10000

var workloads = []workload{
	{
		// EUA-like server density of the scaling rungs (~4 users per
		// server): Ledger.Move upkeep and aggregate rows show next to
		// the Best scans, and the global Phase 1 is the whole solve.
		name:   "solve-global",
		params: experiment.Params{N: 1000, M: 4000, K: 5, Density: 1.0, RegionScale: math.Sqrt(1000.0 / 125)},
		soak:   5,
	},
	{
		// User-dense fixed region (20 users per server) split into 16
		// tiles: partition, tile games, halo sweeps and reconcile; the
		// global adapter does no work.
		name:   "solve-sharded",
		params: experiment.Params{N: 200, M: 4000, K: 5, Density: 1.0},
		shards: 16,
		soak:   10,
	},
	{
		// Small instance, long soak: the data plane (routing, retries,
		// breakers, barrier fold) does the work, and the solver runs only
		// in the boot solve and the few re-plans.
		name:      "serve-outage",
		params:    experiment.Params{N: 40, M: 400, K: 8, Density: 1.0},
		soak:      40,
		outage:    true,
		solvePool: 8,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) solveOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Shards = w.shards
	return opt
}

// soakOptions configures a soak of the strategy: 5% hop loss and 2%
// 50 ms stalls throughout and, with outage, the outage drill of the
// serving baseline (the most-fetched-from server is down from 1/4 to 3/4
// of the soak). The SLO engine is on; flight recorder and hedging are
// off, so outcomes are deterministic.
func soakOptions(in *model.Instance, st model.Strategy, seed uint64, dur units.Seconds, outage bool) serve.Options {
	faults := des.Faults{LossProb: 0.05, StallProb: 0.02, StallTime: units.Seconds(0.05), MaxRetries: 2}
	opt := serve.Options{
		Seed:     seed,
		RPS:      soakRPS,
		Duration: dur,
		Faults:   faults,
		SLO:      serve.SLOOptions{Enabled: true},
	}
	if outage {
		opt.Campaign = &chaos.Campaign{
			Name: "bench-outage",
			Events: []chaos.Event{{
				At:       dur / 4,
				Duration: dur / 2,
				Kind:     chaos.ServerOutage,
				Servers:  []int{serve.PopularSource(in, st)},
			}},
			Faults: faults,
		}
	}
	return opt
}

// endToEnd lists the metrics of an untraced run. Times are process CPU
// time (see cpuTime). The exact outcome metrics that vary strongly from
// seed to seed (Eq. 9 latency, soak tail latency, degraded fraction,
// heal rounds) are gated in every run but reported by the traced run, so
// their seed-to-seed spread is not read as run-to-run noise.
var endToEnd = []metricSpec{
	{"solve_s", "s"},
	{"setup_s", "s"},
	{"avg_rate_mbps", "MB/s"},
	{"peak_rss_mb", "MB"},
	{"serve_cpu_rps", "1/s"},
}

// A run builds its set-up at least setupReps times and for at least
// setupMin; setup_s is the median.
const (
	setupReps = 5
	setupMin  = time.Second
)

// exact holds the values of one solve and soak that must repeat bit for
// bit (and match golden.json when the seed is recorded there).
type exact struct {
	AvgRate     float64 `json:"avg_rate_mbps"`
	AvgLatency  float64 `json:"avg_latency_ms"`
	Moves       int     `json:"game_moves"`
	BestCalls   int     `json:"game_best_calls"`
	Frozen      int     `json:"game_frozen"`
	OutcomeHash string  `json:"outcome_hash"`
}

// solveExact extracts the solve half of the exact values.
func solveExact(res *core.Result) exact {
	return exact{
		AvgRate:    float64(res.AvgRate),
		AvgLatency: res.AvgLatency.Millis(),
		Moves:      res.Phase1.Updates,
		BestCalls:  res.Phase1.Evaluations,
		Frozen:     res.Phase1.Frozen,
	}
}

// build constructs the workload's instance and, for the serving
// workload, the boot strategy and an engine, exactly as a caller would.
func build(w workload, seed uint64) (*model.Instance, error) {
	in, err := experiment.BuildInstance(w.params, seed)
	if err != nil {
		return nil, fmt.Errorf("build %s instance: %w", w.name, err)
	}
	if w.outage {
		st := core.Solve(in, w.solveOptions()).Strategy
		if _, err := serve.NewEngine(in, st, soakOptions(in, st, seed, w.soak, w.outage)); err != nil {
			return nil, fmt.Errorf("boot %s engine: %w", w.name, err)
		}
	}
	return in, nil
}

// solveBlock is the least time a measurement round spends on repeated
// solves before its soak, so that a small instance times many solves.
const solveBlock = time.Second

// round is one measurement round: a block of solves over the instance
// pool, then one soak of the seed's own instance.
type round struct {
	// solveS and solveWallS are each solve's CPU and wall time.
	solveS, solveWallS []float64
	// exs holds the exact values of each pool instance solved in the
	// round; exs[0] (the seed's own instance) carries the soak's hash.
	exs  []exact
	res  *core.Result
	soak *serve.SoakReport
	// soakCPU is the soak's CPU time.
	soakCPU time.Duration
	peakMB  float64
}

// ex is the round's exact record: the seed's own instance and its soak.
func (rd *round) ex() exact { return rd.exs[0] }

// runRound solves the pool round-robin, starting with pool[0], at least
// once and until block has passed, checking every strategy and that every
// repeated solve of an instance matches its first bit for bit; then it
// soaks pool[0]'s strategy.
func runRound(w workload, pool []*model.Instance, seed uint64, block time.Duration) (round, error) {
	var rd round
	resetPeakRSS()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < block; i++ {
		in := pool[i%len(pool)]
		t0, c0 := time.Now(), cpuTime()
		res := core.Solve(in, w.solveOptions())
		rd.solveS = append(rd.solveS, (cpuTime() - c0).Seconds())
		rd.solveWallS = append(rd.solveWallS, time.Since(t0).Seconds())
		if err := in.Check(res.Strategy); err != nil {
			return rd, fmt.Errorf("strategy fails Instance.Check: %w", err)
		}
		ex := solveExact(res)
		switch {
		case i < len(pool):
			rd.exs = append(rd.exs, ex)
			if i == 0 {
				rd.res = res
			}
		case ex != rd.exs[i%len(pool)]:
			return rd, fmt.Errorf("solve %d gave exact values %+v, the first gave %+v", i, ex, rd.exs[i%len(pool)])
		}
	}
	st := rd.res.Strategy
	c0 := cpuTime()
	rep, err := serve.Run(context.Background(), pool[0], st, soakOptions(pool[0], st, seed, w.soak, w.outage))
	if err != nil {
		return rd, fmt.Errorf("soak: %w", err)
	}
	rd.soakCPU = cpuTime() - c0
	rd.soak = rep
	rd.exs[0].OutcomeHash = rep.OutcomeHash
	rd.peakMB = peakRSSMB()
	return rd, nil
}

// buildPool builds the instances solve_s cycles over: the seed's own
// instance first, then instances of seed-derived streams.
func buildPool(w workload, seed uint64, own *model.Instance) ([]*model.Instance, error) {
	pool := []*model.Instance{own}
	for k := 1; k < w.solvePool; k++ {
		in, err := experiment.BuildInstance(w.params, rng.New(seed).SplitN("solve-pool", k).Seed())
		if err != nil {
			return nil, fmt.Errorf("build %s pool instance %d: %w", w.name, k, err)
		}
		pool = append(pool, in)
	}
	return pool, nil
}

func runUntraced(w workload, seed uint64, budget time.Duration, log io.Writer) (*result, error) {
	r := newResult()
	var in *model.Instance
	setupStart := time.Now()
	for i := 0; i < setupReps || time.Since(setupStart) < setupMin; i++ {
		t0, c0 := time.Now(), cpuTime()
		var err error
		if in, err = build(w, seed); err != nil {
			return nil, err
		}
		r.samples["setup_s"] = append(r.samples["setup_s"], (cpuTime() - c0).Seconds())
		r.samples["setup_wall_s"] = append(r.samples["setup_wall_s"], time.Since(t0).Seconds())
	}

	pool, err := buildPool(w, seed, in)
	if err != nil {
		return nil, err
	}

	var first *round
	start := time.Now()
	for first == nil || time.Since(start) < budget {
		rd, err := runRound(w, pool, seed, solveBlock)
		r.attempted += int64(len(rd.solveS))
		if err != nil {
			r.failed++
			r.fail("%v", err)
			break
		}
		r.attempted += rd.soak.Issued
		r.failed += rd.soak.Dropped + rd.soak.DeadlineExceeded
		if first == nil {
			first = &rd
			checkGolden(r, w, seed, rd.ex())
		} else {
			for k, ex := range rd.exs {
				if k < len(first.exs) && ex != first.exs[k] {
					r.failed++
					r.fail("instance %d: exact values %+v differ from the run's first %+v", k, ex, first.exs[k])
				}
			}
		}
		r.samples["solve_s"] = append(r.samples["solve_s"], rd.solveS...)
		r.samples["solve_wall_s"] = append(r.samples["solve_wall_s"], rd.solveWallS...)
		r.samples["serve_cpu_rps"] = append(r.samples["serve_cpu_rps"], float64(rd.soak.Issued)/rd.soakCPU.Seconds())
		r.samples["serve_wall_rps"] = append(r.samples["serve_wall_rps"], rd.soak.WallRPS)
		r.samples["peak_rss_mb"] = append(r.samples["peak_rss_mb"], rd.peakMB)
		fmt.Fprintf(log, "%s: %d solves, median %.3f CPU s; soak %d req in %.3f CPU s (%.3f s wall); peak RSS %.1f MB\n",
			w.name, len(rd.solveS), median(rd.solveS), rd.soak.Issued, rd.soakCPU.Seconds(), rd.soak.WallSeconds, rd.peakMB)
	}
	if first == nil {
		return r, nil
	}
	ex := first.ex()
	r.exact = &ex
	for _, k := range []string{"setup_s", "solve_s", "serve_cpu_rps", "peak_rss_mb"} {
		r.set(k, median(r.samples[k]))
	}
	r.set("avg_rate_mbps", ex.AvgRate)
	return r, nil
}

// checkGolden compares a run's first exact values with golden.json.
func checkGolden(r *result, w workload, seed uint64, ex exact) {
	ref, ok := lookupGolden(w.name, seed)
	switch {
	case !ok:
		r.notes = append(r.notes, fmt.Sprintf("no golden entry for %s seed %d: exact values checked for repeatability only", w.name, seed))
	case ex != ref:
		r.failed++
		r.fail("exact values %+v differ from golden %+v", ex, ref)
	}
}

// maxPhaseP99 is the largest per-phase p99 virtual latency of a soak.
// The data plane keeps exact quantiles per phase only; the largest of
// them bounds the whole-soak p99 from above and is set by the outage.
func maxPhaseP99(rep *serve.SoakReport) float64 {
	p := 0.0
	for _, ps := range rep.Phases {
		p = math.Max(p, ps.P99Ms)
	}
	return p
}

// cpuTime is the process's CPU time, user plus system, over all threads.
// The benchmark reports CPU time rather than wall time because a
// virtual machine's wall clock keeps running while the hypervisor lets
// other guests use the CPU (steal time); on a shared host that swings a
// wall-clock solve by 2x from minute to minute, and CPU time excludes it.
// It counts every thread of the process: parallel workers, spinning
// schedulers and the garbage collector.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) at the
// current RSS, so that each round reports its own peak. Where the
// kernel does not support it, peaks accumulate over the process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(ln, "VmHWM: %g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
