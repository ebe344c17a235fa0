package obs

import (
	"math"
	"testing"
)

func TestSLODefaults(t *testing.T) {
	s := NewSLO(SLOConfig{Name: "availability"})
	if cfg := s.Config(); cfg != (SLOConfig{Name: "availability", Target: 0.999}) {
		t.Fatalf("defaults = %+v", cfg)
	}
	if len(s.good) != slowWindow || fastWindow != 5 || slowWindow != 30 || fastBurn != 14.4 || slowBurn != 6 {
		t.Fatalf("windows %d/%d (ring %d), thresholds %g/%g", fastWindow, slowWindow, len(s.good), fastBurn, slowBurn)
	}
	var nilS *SLO
	if st := nilS.Observe(1, 1); st.Breach {
		t.Error("nil SLO breached")
	}
	if snap := nilS.Snapshot(); snap.Total != 0 {
		t.Error("nil SLO snapshot not zero")
	}
}

// TestSLOBurnRates pins the arithmetic on the 5- and 30-period windows:
// burn = window error rate divided by the error budget (1 - target).
func TestSLOBurnRates(t *testing.T) {
	s := NewSLO(SLOConfig{Name: "avail", Target: 0.99})
	// Perfect periods fill the slow window: burn 0.
	for i := 0; i < slowWindow; i++ {
		if st := s.Observe(100, 100); st.FastBurn != 0 || st.SlowBurn != 0 || st.Breach {
			t.Fatalf("healthy period %d: %+v", i, st)
		}
	}
	// One fully failed period: the fast window (5 periods) is at 20%
	// errors -> burn 20 >= 14.4, but the slow window (30 periods) is at
	// 3.33% -> burn 3.33 < 6: a one-period blip does not breach.
	st := s.Observe(0, 100)
	if math.Abs(st.FastBurn-20) > 1e-9 || math.Abs(st.SlowBurn-10.0/3) > 1e-9 || st.Breach {
		t.Fatalf("after one bad period: %+v, want fast 20 slow 3.33 no breach", st)
	}
	// A second one: fast 40, slow 6.67 — both over threshold: breach.
	st = s.Observe(0, 100)
	if math.Abs(st.FastBurn-40) > 1e-9 || math.Abs(st.SlowBurn-20.0/3) > 1e-9 || !st.Breach {
		t.Fatalf("after two bad periods: %+v, want fast 40 slow 6.67 breach", st)
	}
	// Recovery: the incident stays inside the fast window for four more
	// perfect periods (four more breaches); the fifth pushes it out while
	// the slow window still remembers it.
	for i := 0; i < fastWindow-1; i++ {
		if st := s.Observe(100, 100); !st.Breach {
			t.Fatalf("recovery period %d: %+v, want a breach", i, st)
		}
	}
	st = s.Observe(100, 100)
	if st.FastBurn != 0 {
		t.Fatalf("fast burn %g after recovery, want 0", st.FastBurn)
	}
	if math.Abs(st.SlowBurn-20.0/3) > 1e-9 {
		t.Fatalf("slow burn %g after recovery, want 6.67", st.SlowBurn)
	}
	if st.Breach {
		t.Fatal("breach without the fast window burning")
	}

	snap := s.Snapshot()
	if snap.Total != 37*100 || snap.Good != 3500 {
		t.Fatalf("snapshot totals %d/%d", snap.Good, snap.Total)
	}
	if math.Abs(snap.Compliance-3500.0/3700) > 1e-12 {
		t.Fatalf("compliance %g", snap.Compliance)
	}
	if snap.Breaches != 5 || math.Abs(snap.MaxFastBurn-40) > 1e-9 || math.Abs(snap.MaxSlowBurn-20.0/3) > 1e-9 {
		t.Fatalf("breaches=%d maxFast=%g maxSlow=%g", snap.Breaches, snap.MaxFastBurn, snap.MaxSlowBurn)
	}
}

// TestSLOFastOnlySpikeSuppressed: a single-period spike that the slow
// window dilutes below threshold must not breach — the whole point of
// the multi-window pairing.
func TestSLOFastOnlySpikeSuppressed(t *testing.T) {
	s := NewSLO(SLOConfig{Target: 0.99})
	for i := 0; i < slowWindow-1; i++ {
		s.Observe(1000, 1000)
	}
	st := s.Observe(0, 1000) // fast burn 20, slow burn ~3.33
	if st.FastBurn < fastBurn {
		t.Fatalf("fast burn %g, want >= %g", st.FastBurn, fastBurn)
	}
	if st.Breach {
		t.Fatal("one-period spike breached despite a calm slow window")
	}
}

// TestSLOEmptyPeriods: rounds with zero traffic must not divide by zero
// or fabricate burn.
func TestSLOEmptyPeriods(t *testing.T) {
	s := NewSLO(SLOConfig{Target: 0.999})
	for i := 0; i < 10; i++ {
		if st := s.Observe(0, 0); st.FastBurn != 0 || st.SlowBurn != 0 || st.Breach {
			t.Fatalf("empty period %d: %+v", i, st)
		}
	}
	if snap := s.Snapshot(); snap.Compliance != 0 || snap.Total != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
