// Package perfbench is the tracked performance baseline for the Phase 1
// engine (BENCH_phase1.json): a small self-contained measurement
// harness plus the suite that times Ledger.Benefit and core.SolvePhase1
// across instance scales, for the optimized engine (incremental
// interference aggregates + dirty-set scheduling) against the
// literal-Algorithm-1 reference (naive interference + full-scan
// rounds).
//
// The harness deliberately avoids testing.Benchmark so it can run from
// cmd/iddebench with a configurable time budget and attach game stats
// (updates, rounds, evaluations) to each record; `go test -bench` in
// the repo root covers the same ground through the standard tooling.
package perfbench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/game"
	"idde/internal/model"
	"idde/internal/rng"
)

// ReferenceCapM bounds the instance size at which the full-scan/naive
// reference variants are still measured: a full scan at M=10000 costs
// ~rounds×M×|δ_j| naive evaluations (order 10^9 ledger walks per
// solve), which is exactly the regime the optimization exists to avoid.
// The cap is recorded in the report so the asymmetry is explicit.
const ReferenceCapM = 2000

// Record is one measured configuration.
type Record struct {
	// Name identifies the benchmark, e.g. "LedgerBenefit/aggregate".
	Name string `json:"name"`
	// N, M describe the instance scale (density=1.0 throughout). K is
	// recorded by the Phase 2 suite; the Phase 1 suite fixes K=5 and
	// omits it.
	N int `json:"n"`
	M int `json:"m"`
	K int `json:"k,omitempty"`
	// Iters is the number of timed operations.
	Iters int `json:"iters"`
	// NsPerOp is wall-clock per operation (one Benefit evaluation, or
	// one full Phase 1 solve).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp / BytesPerOp are heap costs per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Updates/Rounds/Evaluations carry the game stats of the last solve
	// for Phase 1 records (zero for ledger micro-benches). Updates and
	// Rounds are invariant across engine variants at a given scale;
	// Evaluations is the dirty-set savings metric. The Phase 2 suite
	// reuses Evaluations for oracle Gain calls (the CELF metric).
	Updates     int `json:"updates,omitempty"`
	Rounds      int `json:"rounds,omitempty"`
	Evaluations int `json:"evaluations,omitempty"`
	// Replicas is the committed delivery-decision count of the last
	// solve (Phase 2 records only); invariant across variants at a
	// given scale because all engines commit the same sequence.
	Replicas int `json:"replicas,omitempty"`
	// Workers is the GOMAXPROCS the record was measured under, set only
	// by the Phase 2 multi-core sweep (0 = the process default). The
	// committed sequences are identical across worker counts; only
	// wall-clock moves.
	Workers int `json:"workers,omitempty"`
}

// Report is the BENCH_phase1.json schema.
type Report struct {
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Seed          uint64   `json:"seed"`
	BudgetPerCase string   `json:"budget_per_case"`
	ReferenceCapM int      `json:"reference_cap_m"`
	Records       []Record `json:"records"`
	// Speedups maps "SolvePhase1/M=<m>" to reference-ns / optimized-ns
	// for every scale where both variants were measured.
	Speedups map[string]float64 `json:"speedups"`
}

// Scales is the tracked instance-size trajectory: N tracks M at the
// paper's ~1:20 server:user ratio, K and density stay at the Table 2
// defaults.
func Scales() []experiment.Params {
	var ps []experiment.Params
	for _, m := range []int{100, 500, 2000, 10000} {
		n := m / 20
		if n < 10 {
			n = 10
		}
		ps = append(ps, experiment.Params{N: n, M: m, K: 5, Density: 1.0})
	}
	return ps
}

// measure times fn — which must perform batch operations per call —
// until budget elapses (at least once), returning iterations, ns/op and
// allocs/op.
func measure(budget time.Duration, batch int, fn func()) (iters int, nsPerOp, allocsPerOp, bytesPerOp float64) {
	return measureAfter(budget, batch, nil, fn)
}

// measureAfter is measure with an untimed setup step (nil = none) before
// every call of fn. The budget bounds wall time, setup included; ns/op
// counts fn alone, allocs/op both.
func measureAfter(budget time.Duration, batch int, setup, fn func()) (iters int, nsPerOp, allocsPerOp, bytesPerOp float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var timed time.Duration
	for {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		fn()
		timed += time.Since(t0)
		iters++
		if time.Since(start) >= budget {
			break
		}
	}
	runtime.ReadMemStats(&after)
	ops := float64(iters * batch)
	nsPerOp = float64(timed.Nanoseconds()) / ops
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / ops
	bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / ops
	return iters, nsPerOp, allocsPerOp, bytesPerOp
}

// benefitProbes draws a deterministic batch of distinct in-coverage
// hypothetical decisions for the Benefit micro-benches: count of them,
// or fewer on an instance with fewer decisions. Distinct probes keep a
// pass over a freshly invalidated batch free of Benefit memo hits.
func benefitProbes(in *model.Instance, s *rng.Stream, count int) (js []int, as []model.Alloc) {
	type probe struct {
		j int
		a model.Alloc
	}
	seen := make(map[probe]bool, count)
	for draws := 0; len(js) < count && draws < 16*count; draws++ {
		j := s.IntN(in.M())
		vs := in.Top.Coverage[j]
		if len(vs) == 0 {
			continue
		}
		i := vs[s.IntN(len(vs))]
		a := model.Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
		if seen[probe{j, a}] {
			continue
		}
		seen[probe{j, a}] = true
		js = append(js, j)
		as = append(as, a)
	}
	return js, as
}

// phase1Variants enumerates the engine configurations the baseline
// tracks. "optimized" is the production default; "reference" is the
// literal Algorithm 1; the middle variants isolate each optimization.
func phase1Variants() []struct {
	Name string
	Opt  core.Options
	Ref  bool // subject to ReferenceCapM
} {
	fullScan := func(naive bool) core.Options {
		g := game.DefaultOptions()
		g.FullScan = true
		return core.Options{Game: g, NaiveInterference: naive}
	}
	return []struct {
		Name string
		Opt  core.Options
		Ref  bool
	}{
		{Name: "optimized", Opt: core.DefaultOptions()},
		{Name: "fullscan+aggregate", Opt: fullScan(false), Ref: true},
		{Name: "reference", Opt: core.ReferenceOptions(), Ref: true},
	}
}

// Run executes the suite over the tracked Scales ladder with the given
// per-case time budget. Progress lines go through logf (may be nil).
func Run(budget time.Duration, seed uint64, logf func(format string, args ...any)) (*Report, error) {
	return RunScales(Scales(), budget, seed, logf)
}

// RunScales executes the suite over an explicit scale list (tests use
// tiny instances; the committed baseline uses Scales).
func RunScales(scales []experiment.Params, budget time.Duration, seed uint64, logf func(format string, args ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          seed,
		BudgetPerCase: budget.String(),
		ReferenceCapM: ReferenceCapM,
		Speedups:      map[string]float64{},
	}

	for _, p := range scales {
		in, err := experiment.BuildInstance(p, seed)
		if err != nil {
			return nil, fmt.Errorf("build instance %v: %w", p, err)
		}

		// Ledger.Benefit micro-bench: aggregate vs naive evaluator over
		// an identical probe batch on an identical random profile. The
		// aggregate record times the evaluator itself: before every
		// timed pass each probed user moves away and back, which
		// invalidates all of its memo entries. memo-hit times the same
		// batch served from the memo.
		s := rng.New(seed * 77)
		alloc := model.NewAllocation(in.M())
		l := model.NewLedger(in, alloc)
		for j := 0; j < in.M(); j++ {
			if vs := in.Top.Coverage[j]; len(vs) > 0 {
				i := vs[s.IntN(len(vs))]
				l.Move(j, model.Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
			}
		}
		js, as := benefitProbes(in, s, 4096)
		batch := len(js)
		var movers []int
		moved := make([]bool, in.M())
		for _, j := range js {
			if !moved[j] {
				moved[j] = true
				movers = append(movers, j)
			}
		}
		invalidate := func() {
			for _, j := range movers {
				cur := l.Current(j)
				l.Move(j, model.Unallocated)
				l.Move(j, cur)
			}
		}
		for _, v := range []struct {
			name  string
			naive bool
			setup func()
		}{
			{"LedgerBenefit/aggregate", false, invalidate},
			{"LedgerBenefit/memo-hit", false, nil},
			{"LedgerBenefit/naive", true, nil},
		} {
			l.SetNaiveInterference(v.naive)
			probe := func() {
				for bi := range js {
					_ = l.Benefit(js[bi], as[bi])
				}
			}
			probe() // warm-up: materialize aggregate rows outside the timer
			iters, ns, ac, bc := measureAfter(budget/4, batch, v.setup, probe)
			rep.Records = append(rep.Records, Record{
				Name: v.name, N: p.N, M: p.M,
				Iters: iters * batch, NsPerOp: ns, AllocsPerOp: ac, BytesPerOp: bc,
			})
			logf("%-28s N=%-4d M=%-6d %12.1f ns/op", v.name, p.N, p.M, ns)
		}
		l.SetNaiveInterference(false)

		// Phase 1 solve: one op = one full best-response game from the
		// empty profile.
		for _, v := range phase1Variants() {
			if v.Ref && p.M > ReferenceCapM {
				logf("%-28s N=%-4d M=%-6d skipped (reference cap M=%d)",
					"SolvePhase1/"+v.Name, p.N, p.M, ReferenceCapM)
				continue
			}
			var st game.Stats
			iters, ns, ac, bc := measure(budget, 1, func() {
				_, st = core.SolvePhase1(in, v.Opt)
			})
			rep.Records = append(rep.Records, Record{
				Name: "SolvePhase1/" + v.Name, N: p.N, M: p.M,
				Iters: iters, NsPerOp: ns, AllocsPerOp: ac, BytesPerOp: bc,
				Updates: st.Updates, Rounds: st.Rounds, Evaluations: st.Evaluations,
			})
			logf("%-28s N=%-4d M=%-6d %12.1f ns/op  (updates=%d rounds=%d evals=%d)",
				"SolvePhase1/"+v.Name, p.N, p.M, ns, st.Updates, st.Rounds, st.Evaluations)
		}
	}

	// Headline speedups: reference vs optimized wherever both ran.
	byKey := map[string]Record{}
	for _, r := range rep.Records {
		byKey[fmt.Sprintf("%s/M=%d", r.Name, r.M)] = r
	}
	for _, p := range scales {
		ref, okR := byKey[fmt.Sprintf("SolvePhase1/reference/M=%d", p.M)]
		opt, okO := byKey[fmt.Sprintf("SolvePhase1/optimized/M=%d", p.M)]
		if okR && okO && opt.NsPerOp > 0 {
			rep.Speedups[fmt.Sprintf("SolvePhase1/M=%d", p.M)] = ref.NsPerOp / opt.NsPerOp
		}
		refB, okR := byKey[fmt.Sprintf("LedgerBenefit/naive/M=%d", p.M)]
		optB, okO := byKey[fmt.Sprintf("LedgerBenefit/aggregate/M=%d", p.M)]
		if okR && okO && optB.NsPerOp > 0 {
			rep.Speedups[fmt.Sprintf("LedgerBenefit/M=%d", p.M)] = refB.NsPerOp / optB.NsPerOp
		}
	}
	return rep, nil
}

// JSON renders the report with stable indentation for committing.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
