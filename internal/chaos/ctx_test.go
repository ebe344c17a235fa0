package chaos

import (
	"context"
	"errors"
	"testing"

	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/rng"
	"idde/internal/units"
)

// TestRunCtxPreCancelled returns an empty-but-valid campaign report and
// the context error without replaying a single epoch.
func TestRunCtxPreCancelled(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 3)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	c := Correlated(in, GenConfig{
		ClusterSize:    2,
		OutageDuration: units.Seconds(30),
		Faults:         des.Faults{LossProb: 0.1},
	}, rng.New(5))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, in, st, c, Config{Seed: 9})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("no partial report")
	}
	if len(rep.Epochs) != 0 {
		t.Errorf("pre-cancelled campaign replayed %d epochs", len(rep.Epochs))
	}
	// The healthy baseline is measured before the epoch loop, so even an
	// empty report carries it.
	if rep.HealthyRateMBps <= 0 {
		t.Errorf("partial report missing healthy baseline: %v", rep.HealthyRateMBps)
	}
}

// TestMonteCarloCtxCancelMidSweep cancels from inside the generator
// after three campaigns: the sweep must come back truncated to exactly
// the fully replayed campaigns, with the aggregates matching that count.
func TestMonteCarloCtxCancelMidSweep(t *testing.T) {
	in := genInstance(t, 12, 70, 4, 5)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gen := func(i int, s *rng.Stream) Campaign {
		if i == 3 {
			cancel()
		}
		return Correlated(in, GenConfig{
			ClusterSize:    3,
			OutageDuration: units.Seconds(45),
			Faults:         des.Faults{LossProb: 0.2},
		}, s)
	}
	sw, err := MonteCarlo(ctx, in, st, gen, SweepConfig{
		Config:    Config{Seed: 2022, Spread: units.Seconds(2)},
		Campaigns: 10,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sw == nil {
		t.Fatal("no partial sweep")
	}
	if len(sw.Reports) != 3 {
		t.Fatalf("partial sweep holds %d campaigns, want 3", len(sw.Reports))
	}
	if sw.Campaigns != 3 {
		t.Errorf("Campaigns = %d, want the completed count 3", sw.Campaigns)
	}
	if sw.Stranded.N != 3 || sw.Retries.N != 3 {
		t.Errorf("aggregates cover %d/%d campaigns, want 3/3", sw.Stranded.N, sw.Retries.N)
	}

	// The truncated prefix must match the same sweep run to completion:
	// cancellation never perturbs the campaigns that did finish.
	fullGen := func(i int, s *rng.Stream) Campaign {
		return Correlated(in, GenConfig{
			ClusterSize:    3,
			OutageDuration: units.Seconds(45),
			Faults:         des.Faults{LossProb: 0.2},
		}, s)
	}
	full, err := MonteCarlo(context.Background(), in, st, fullGen, SweepConfig{
		Config:    Config{Seed: 2022, Spread: units.Seconds(2)},
		Campaigns: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if sw.Reports[i].Name != full.Reports[i].Name ||
			sw.Reports[i].TotalRetries != full.Reports[i].TotalRetries {
			t.Errorf("campaign %d differs between partial and full sweep", i)
		}
	}
}
