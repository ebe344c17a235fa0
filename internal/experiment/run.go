package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	// Obs receives harness-level telemetry: a span per set and
	// progress counters (instances built, approach solves). Reps run
	// concurrently, so only order-free counters are recorded from the
	// workers — trace events come from the serialized section alone,
	// keeping traces deterministic. nil disables all of it.
	Obs *obs.Scope
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

// measurement is one approach's observation on one repetition; runRep
// returns them in cfg.Approaches order.
type measurement struct {
	rate      float64 // MBps
	latencyMs float64
	timeSec   float64
}

// RunSet executes one Table 2 set and aggregates the three metrics.
// Repetitions run on GOMAXPROCS workers, each storing its measurements
// in the repetition's own slot; the fold runs afterwards in (x, rep,
// approach) order, so no summary depends on which worker finished
// first.
func RunSet(set Set, cfg Config) (*SetResult, error) {
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("experiment: Reps must be positive")
	}
	if len(cfg.Approaches) == 0 {
		cfg.Approaches = baseline.All()
	}
	if cfg.Obs.Tracing() {
		cfg.Obs.Begin("experiment", "set", map[string]any{
			"id": set.ID, "vary": set.Vary, "xs": len(set.Values), "reps": cfg.Reps,
		})
		defer cfg.Obs.End("experiment", "set")
	}

	// slots[xi*Reps+rep] holds repetition rep of x value xi.
	type slot struct {
		ms  []measurement
		err error
	}
	slots := make([]slot, len(set.Values)*cfg.Reps)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := runtime.GOMAXPROCS(0); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(slots) {
					return
				}
				slots[t].ms, slots[t].err = runRep(set, cfg, t/cfg.Reps, t%cfg.Reps)
			}
		}()
	}
	wg.Wait()

	sr := &SetResult{Set: set, Config: cfg, Points: make([]Point, len(set.Values))}
	for xi, x := range set.Values {
		accs := make([]struct{ rate, lat, tim stats.Acc }, len(cfg.Approaches))
		for _, sl := range slots[xi*cfg.Reps : (xi+1)*cfg.Reps] {
			if sl.err != nil {
				return nil, sl.err
			}
			for a, m := range sl.ms {
				accs[a].rate.Add(m.rate)
				accs[a].lat.Add(m.latencyMs)
				accs[a].tim.Add(m.timeSec)
			}
		}
		pt := Point{X: x, Params: set.ParamsAt(x), ByApproach: map[string]Metrics{}}
		for a, ap := range cfg.Approaches {
			pt.ByApproach[ap.Name()] = Metrics{
				Rate:      accs[a].rate.Summary(),
				LatencyMs: accs[a].lat.Summary(),
				TimeSec:   accs[a].tim.Summary(),
			}
		}
		sr.Points[xi] = pt
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
			rate:      float64(rate),
			latencyMs: lat.Millis(),
			timeSec:   elapsed.Seconds(),
		})
	}
	return ms, nil
}
