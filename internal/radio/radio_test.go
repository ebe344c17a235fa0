package radio

import (
	"math"
	"testing"
	"testing/quick"

	"idde/internal/units"
)

func TestDefaultConstants(t *testing.T) {
	m := Default()
	if m.Eta != 1 || m.Loss != 3 {
		t.Errorf("η=%v loss=%v, want 1 and 3", m.Eta, m.Loss)
	}
	// -174 dBm ≈ 3.98e-21 W.
	if math.Abs(float64(m.Noise)-3.98107e-21) > 1e-25 {
		t.Errorf("noise = %v W", float64(m.Noise))
	}
}

func TestGainPowerLaw(t *testing.T) {
	m := Default()
	// g(100m) = 100^-3 = 1e-6.
	if g := m.Gain(100); math.Abs(g-1e-6) > 1e-15 {
		t.Errorf("Gain(100) = %v", g)
	}
	// Doubling distance with loss=3 cuts gain by 8.
	ratio := m.Gain(100) / m.Gain(200)
	if math.Abs(ratio-8) > 1e-9 {
		t.Errorf("gain ratio = %v, want 8", ratio)
	}
}

func TestGainClampsAtRefDist(t *testing.T) {
	m := Default()
	if m.Gain(0) != m.Gain(0.5) || m.Gain(0) != m.Gain(1) {
		t.Error("sub-reference distances should clamp to RefDist gain")
	}
	if math.IsInf(m.Gain(0), 1) || math.IsNaN(m.Gain(0)) {
		t.Error("gain at zero distance must be finite")
	}
}

func TestGainMonotone(t *testing.T) {
	m := Default()
	f := func(aRaw, bRaw float64) bool {
		a := units.Meters(1 + math.Mod(math.Abs(aRaw), 5000))
		b := units.Meters(1 + math.Mod(math.Abs(bRaw), 5000))
		if a > b {
			a, b = b, a
		}
		return m.Gain(a) >= m.Gain(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSINRKnownValue(t *testing.T) {
	m := Model{Eta: 1, Loss: 2, Noise: 1e-9, RefDist: 1}
	// g=1e-4 (100m, loss 2), p=2W, intraOther=1W, F=1e-4 W.
	// r = 1e-4·2 / (1e-4·1 + 1e-4 + 1e-9) ≈ 2e-4/2.00001e-4 ≈ 0.999995.
	r := m.SINR(1e-4, 2, 1, 1e-4)
	if math.Abs(r-0.99999500) > 1e-6 {
		t.Errorf("SINR = %v", r)
	}
}

func TestSINRInterferenceFree(t *testing.T) {
	m := Default()
	g := m.Gain(100)
	r := m.SINR(g, 3, 0, 0)
	want := g * 3 / float64(m.Noise)
	if math.Abs(r-want) > 1e-6*want {
		t.Errorf("noise-limited SINR = %v, want %v", r, want)
	}
	if r < 1e12 {
		t.Errorf("isolated user should be far above noise floor, got %v", r)
	}
}

func TestSINRMonotoneInInterference(t *testing.T) {
	m := Default()
	f := func(fRaw, gRaw float64) bool {
		g := m.Gain(units.Meters(50 + math.Mod(math.Abs(gRaw), 500)))
		f1 := units.Watts(math.Mod(math.Abs(fRaw), 1e-3))
		f2 := f1 + 1e-6
		return m.SINR(g, 2, 0, f1) >= m.SINR(g, 2, 0, f2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSINRDegenerateDenominator(t *testing.T) {
	m := Model{Eta: 1, Loss: 3, Noise: 0, RefDist: 1}
	if r := m.SINR(1e-6, 2, 0, 0); !math.IsInf(r, 1) {
		t.Errorf("zero denominator should give +Inf, got %v", r)
	}
}

func TestShannonRate(t *testing.T) {
	// B=200, SINR=1 → 200·log2(2) = 200.
	if r := ShannonRate(200, 1); math.Abs(float64(r)-200) > 1e-9 {
		t.Errorf("rate = %v", r)
	}
	// SINR=3 → log2(4)=2 → 400.
	if r := ShannonRate(200, 3); math.Abs(float64(r)-400) > 1e-9 {
		t.Errorf("rate = %v", r)
	}
	if r := ShannonRate(200, 0); r != 0 {
		t.Errorf("zero SINR rate = %v", r)
	}
	if r := ShannonRate(200, -1); r != 0 {
		t.Errorf("negative SINR rate = %v", r)
	}
	if r := ShannonRate(200, math.Inf(1)); !math.IsInf(float64(r), 1) {
		t.Errorf("infinite SINR rate = %v", r)
	}
}

func TestCapRate(t *testing.T) {
	if r := CapRate(500, 250); r != 250 {
		t.Errorf("CapRate = %v", r)
	}
	if r := CapRate(100, 250); r != 100 {
		t.Errorf("CapRate = %v", r)
	}
}

func TestLemma2Bound(t *testing.T) {
	m := Default()
	g := m.Gain(100)
	p := units.Watts(3)
	// At R_min = B, the tolerable interference is g·p/(2^1−1) − ω = g·p − ω.
	got := m.Lemma2Bound(g, p, 200, 200)
	want := g*float64(p) - float64(m.Noise)
	if math.Abs(float64(got)-want) > 1e-9*want {
		t.Errorf("T_j = %v, want %v", float64(got), want)
	}
	// Higher required rate → lower tolerable interference.
	if m.Lemma2Bound(g, p, 400, 200) >= m.Lemma2Bound(g, p, 100, 200) {
		t.Error("Lemma2Bound not decreasing in required rate")
	}
	// Zero rate requirement tolerates unbounded interference.
	if !math.IsInf(float64(m.Lemma2Bound(g, p, 0, 200)), 1) {
		t.Error("zero rate should tolerate infinite interference")
	}
	// Negative results clamp to zero.
	tiny := Model{Eta: 1, Loss: 3, Noise: 1, RefDist: 1}
	if b := tiny.Lemma2Bound(1e-9, 1, 200, 200); b != 0 {
		t.Errorf("negative bound not clamped: %v", b)
	}
	if b := m.Lemma2Bound(g, p, 200, 0); b != 0 {
		t.Errorf("zero bandwidth bound = %v, want 0", b)
	}
}

// TestRateRealismAtPaperScale sanity-checks that the §4.2 constants put
// uncontended users far above any plausible R_max cap (so R_max binds,
// matching Fig. 4's ≈196 MBps at M=50) and contended users well below it.
func TestRateRealismAtPaperScale(t *testing.T) {
	m := Default()
	g := m.Gain(300) // mid-coverage distance
	solo := ShannonRate(200, m.SINR(g, 3, 0, 0))
	if solo < 5000 {
		t.Errorf("uncontended Shannon rate %v unexpectedly low", solo)
	}
	// Three equal-power users sharing a channel: SINR ≈ 1/2.
	shared := ShannonRate(200, m.SINR(g, 3, 6, 0))
	if shared > 200 || shared < 50 {
		t.Errorf("contended rate %v outside plausible band", shared)
	}
}
