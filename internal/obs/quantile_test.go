package obs

import (
	"math"
	"sort"
	"testing"
)

// withinBucketBound asserts the log2-bucket error contract: estimate and
// truth must land in the same bucket, i.e. within a factor of 2 for
// values >= 2 and within the [0,2) bucket absolutely below that.
func withinBucketBound(t *testing.T, name string, got, want float64) {
	t.Helper()
	if want < 2 {
		if got < 0 || got >= 2 {
			t.Errorf("%s: estimate %g outside bucket [0,2) holding true value %g", name, got, want)
		}
		return
	}
	if got < want/2 || got > want*2 {
		t.Errorf("%s: estimate %g violates factor-2 bound around %g", name, got, want)
	}
	// The estimate interpolates over [lower, upper] of the true value's
	// bucket, inclusive of the upper edge, so it may land at the first
	// value of the next bucket — adjacent is the tightest stable bound.
	if d := histBucketOf(got) - histBucketOf(want); d < -1 || d > 1 {
		t.Errorf("%s: estimate %g (bucket %d) not adjacent to true value's bucket %d (%g)",
			name, got, histBucketOf(got), histBucketOf(want), want)
	}
}

// percentile is the exact reference the histogram quantiles are checked
// against: the p-th percentile (0 <= p <= 100) by linear interpolation
// between order statistics. It panics on an empty slice or a p outside
// [0,100].
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic("percentile out of range")
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys) == 1 {
		return ys[0]
	}
	pos := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ys[lo]
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if p := percentile(xs, 0); p != 15 {
		t.Errorf("p0 = %v", p)
	}
	if p := percentile(xs, 100); p != 50 {
		t.Errorf("p100 = %v", p)
	}
	if p := percentile(xs, 50); p != 35 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 25); p != 20 {
		t.Errorf("p25 = %v", p)
	}
	// Input must not be mutated.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("percentile mutated input")
	}
	if p := percentile([]float64{7}, 60); p != 7 {
		t.Errorf("singleton percentile = %v", p)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { percentile(nil, 50) }},
		{"below", func() { percentile([]float64{1}, -1) }},
		{"above", func() { percentile([]float64{1}, 101) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestQuantileAgainstPercentile pins p50/p99/p999 against the exact
// percentile on known distributions, checking the documented log2-bucket
// error bound.
func TestQuantileAgainstPercentile(t *testing.T) {
	dists := map[string]func(i int) float64{
		// Uniform ramp over [0, 1000).
		"uniform": func(i int) float64 { return float64(i) / 10 },
		// Long-tailed: mostly small with a heavy far tail, the shape of
		// a retry-inflated latency distribution.
		"tail": func(i int) float64 {
			v := 3 + 0.01*float64(i%97)
			switch {
			case i%100 == 0:
				return v * 300
			case i%10 == 0:
				return v * 20
			default:
				return v
			}
		},
		// Two-point mass: exercises interpolation inside one bucket.
		"bimodal": func(i int) float64 {
			if i%4 == 0 {
				return 900
			}
			return 5
		},
	}
	for name, gen := range dists {
		h := &Histogram{}
		var xs []float64
		for i := 0; i < 10000; i++ {
			v := gen(i)
			h.Observe(v)
			xs = append(xs, v)
		}
		for _, p := range []float64{0.50, 0.99, 0.999} {
			got := h.Quantile(p)
			want := percentile(xs, p*100)
			withinBucketBound(t, name, got, want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile != 0")
	}
	h := &Histogram{}
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h.Observe(5) // single observation in bucket 2: [4,8)
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		q := h.Quantile(p)
		if q < 4 || q > 8 {
			t.Errorf("Quantile(%g) = %g outside the only occupied bucket [4,8)", p, q)
		}
	}
	// The far tail must clamp into the final bucket, not overflow.
	h2 := &Histogram{}
	h2.Observe(math.Inf(1))
	if q := h2.Quantile(0.999); math.IsInf(q, 1) || q < math.Ldexp(1, 62) || q > math.Ldexp(1, 63) {
		t.Errorf("far-tail quantile %g outside [2^62, 2^63]", q)
	}
}

// TestSnapshotQuantiles: Registry.Snapshot exports the three standard
// quantile estimates next to _count and _sum.
func TestSnapshotQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms")
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i))
	}
	snap := r.Snapshot()
	for _, key := range []string{"lat_ms_p50", "lat_ms_p99", "lat_ms_p999"} {
		v, ok := snap[key].(float64)
		if !ok {
			t.Fatalf("snapshot missing %s: %v", key, snap[key])
		}
		if v <= 0 {
			t.Errorf("%s = %g, want > 0", key, v)
		}
	}
	p50 := snap["lat_ms_p50"].(float64)
	p999 := snap["lat_ms_p999"].(float64)
	if p999 <= p50 {
		t.Errorf("p999 %g <= p50 %g", p999, p50)
	}
}
