package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"idde/internal/baseline"
	"idde/internal/model"
	"idde/internal/obs"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/stats"
	"idde/internal/topology"
	"idde/internal/workload"
)

// Config controls a harness run.
type Config struct {
	// Reps is the number of randomized repetitions per x value (the
	// paper uses 50; see EXPERIMENTS.md for the budget used here).
	Reps int
	// Seed roots all instance randomness.
	Seed uint64
	// Approaches to compare; defaults to baseline.All().
	Approaches []baseline.Approach
	// Workers bounds parallel replicas (default GOMAXPROCS).
	Workers int
	// Obs receives harness-level telemetry: a span per set and
	// progress counters (instances built, approach solves). Reps run
	// concurrently, so only order-free counters are recorded from the
	// workers — trace events come from the serialized section alone,
	// keeping traces deterministic. nil disables all of it.
	Obs *obs.Scope
}

// DefaultConfig mirrors §4.3 (50 repetitions, all five approaches).
func DefaultConfig() Config {
	return Config{Reps: 50, Seed: 2022, Approaches: baseline.All()}
}

// Metrics aggregates one approach at one x value across repetitions.
type Metrics struct {
	// Rate is R_avg in MBps (Figures 3a–6a).
	Rate stats.Summary
	// LatencyMs is L_avg in milliseconds (Figures 3b–6b).
	LatencyMs stats.Summary
	// TimeSec is the strategy formulation time in seconds (Figure 7).
	TimeSec stats.Summary
}

// Point is one x value of one figure.
type Point struct {
	X      float64
	Params Params
	// ByApproach maps approach name to its aggregated metrics.
	ByApproach map[string]Metrics
}

// SetResult is the data behind one figure (3, 4, 5 or 6).
type SetResult struct {
	Set    Set
	Config Config
	Points []Point
	// Elapsed is the harness wall-clock for the whole set.
	Elapsed time.Duration
}

// BuildInstance constructs the randomized IDDE instance for one
// repetition, using the §4.2 defaults.
func BuildInstance(p Params, seed uint64) (*model.Instance, error) {
	s := rng.New(seed)
	cfg := topology.DefaultGen(p.N, p.M, p.Density)
	if p.RegionScale > 0 && p.RegionScale != 1 {
		cfg.Region.MaxX = cfg.Region.MinX + cfg.Region.Width()*p.RegionScale
		cfg.Region.MaxY = cfg.Region.MinY + cfg.Region.Height()*p.RegionScale
	}
	top, err := topology.Generate(cfg, s.Split("topology"))
	if err != nil {
		return nil, err
	}
	wl, err := workload.Generate(workload.DefaultGen(p.K), p.N, p.M, s.Split("workload"))
	if err != nil {
		return nil, err
	}
	return model.New(top, wl, radio.Default())
}

// repSeed derives the instance seed for (set, x-index, rep).
func repSeed(root uint64, setID, xi, rep int) uint64 {
	return rng.New(root).SplitN("set", setID).SplitN("x", xi).SplitN("rep", rep).Seed()
}

// measurement is one (approach, rep) observation.
type measurement struct {
	approach  string
	rate      float64 // MBps
	latencyMs float64
	timeSec   float64
}

// RunSet executes one Table 2 set and aggregates the three metrics.
func RunSet(set Set, cfg Config) (*SetResult, error) {
	return RunSetCtx(context.Background(), set, cfg)
}

// RunSetCtx is RunSet under a context. Cancellation stops the worker
// pool cleanly — no task is abandoned mid-send and every goroutine
// exits before the call returns — and yields a partial SetResult
// aggregating the repetitions that finished, alongside ctx.Err().
// Summaries in a partial result cover fewer than cfg.Reps repetitions.
func RunSetCtx(ctx context.Context, set Set, cfg Config) (*SetResult, error) {
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("experiment: Reps must be positive")
	}
	if len(cfg.Approaches) == 0 {
		cfg.Approaches = baseline.All()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	if cfg.Obs.Tracing() {
		cfg.Obs.Begin("experiment", "set", map[string]any{
			"id": set.ID, "vary": set.Vary, "xs": len(set.Values), "reps": cfg.Reps,
		})
		defer cfg.Obs.End("experiment", "set")
	}

	type task struct{ xi, rep int }
	type taskResult struct {
		xi  int
		ms  []measurement
		err error
	}
	tasks := make(chan task)
	results := make(chan taskResult)

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				// Drain without solving once cancelled: the producer
				// stops feeding, but tasks already queued must still be
				// consumed so nobody blocks on a send.
				if ctx.Err() != nil {
					continue
				}
				ms, err := runRep(set, cfg, tk.xi, tk.rep)
				results <- taskResult{xi: tk.xi, ms: ms, err: err}
			}
		}()
	}
	go func() {
		defer close(tasks)
		for xi := range set.Values {
			for rep := 0; rep < cfg.Reps; rep++ {
				select {
				case tasks <- task{xi: xi, rep: rep}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Aggregate with online accumulators per (x, approach).
	type accs struct{ rate, lat, tim stats.Acc }
	agg := make([]map[string]*accs, len(set.Values))
	for xi := range agg {
		agg[xi] = map[string]*accs{}
		for _, ap := range cfg.Approaches {
			agg[xi][ap.Name()] = &accs{}
		}
	}
	var firstErr error
	for tr := range results {
		if tr.err != nil {
			if firstErr == nil {
				firstErr = tr.err
			}
			continue
		}
		for _, m := range tr.ms {
			a := agg[tr.xi][m.approach]
			a.rate.Add(m.rate)
			a.lat.Add(m.latencyMs)
			a.tim.Add(m.timeSec)
		}
	}
	// results is closed, so every worker has exited and the producer is
	// gone: nothing outlives this call even when cancelled mid-set.
	if firstErr == nil {
		firstErr = ctx.Err()
	}

	sr := &SetResult{Set: set, Config: cfg, Points: make([]Point, len(set.Values))}
	for xi, x := range set.Values {
		pt := Point{X: x, Params: set.ParamsAt(x), ByApproach: map[string]Metrics{}}
		for name, a := range agg[xi] {
			pt.ByApproach[name] = Metrics{
				Rate:      a.rate.Summary(),
				LatencyMs: a.lat.Summary(),
				TimeSec:   a.tim.Summary(),
			}
		}
		sr.Points[xi] = pt
	}
	sr.Elapsed = time.Since(start)
	if firstErr != nil {
		if ctx.Err() != nil {
			// Partial but internally consistent: return the aggregation
			// of everything that finished, flagged by the context error.
			return sr, ctx.Err()
		}
		return nil, firstErr
	}
	return sr, nil
}

// runRep builds one instance and runs every approach on it.
func runRep(set Set, cfg Config, xi, rep int) ([]measurement, error) {
	p := set.ParamsAt(set.Values[xi])
	seed := repSeed(cfg.Seed, set.ID, xi, rep)
	in, err := BuildInstance(p, seed)
	if err != nil {
		return nil, fmt.Errorf("set #%d x=%v rep %d: %w", set.ID, set.Values[xi], rep, err)
	}
	cfg.Obs.Count("experiment_instances_total", 1)
	ms := make([]measurement, 0, len(cfg.Approaches))
	for _, ap := range cfg.Approaches {
		t0 := time.Now()
		st := ap.Solve(in, seed)
		elapsed := time.Since(t0)
		cfg.Obs.Count("experiment_solves_total", 1)
		if err := in.Check(st); err != nil {
			return nil, fmt.Errorf("%s produced an invalid strategy: %w", ap.Name(), err)
		}
		rate, lat := in.Evaluate(st)
		ms = append(ms, measurement{
			approach:  ap.Name(),
			rate:      float64(rate),
			latencyMs: lat.Millis(),
			timeSec:   elapsed.Seconds(),
		})
	}
	return ms, nil
}
