package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccBasics(t *testing.T) {
	var a Acc
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if math.Abs(a.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", a.Var(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccEmptyAndSingle(t *testing.T) {
	var a Acc
	if a.Mean() != 0 || a.Var() != 0 || a.CI95() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	a.Add(3)
	if a.Mean() != 3 || a.Var() != 0 || a.Min() != 3 || a.Max() != 3 {
		t.Error("single observation stats wrong")
	}
}

func TestAccMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			xs = append(xs, math.Mod(r, 1e6))
		}
		if len(xs) < 2 {
			return true
		}
		var a Acc
		for _, x := range xs {
			a.Add(x)
		}
		mean := Mean(xs)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(a.Mean()-mean) < 1e-8*math.Max(1, math.Abs(mean)) &&
			math.Abs(a.Var()-naiveVar) < 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	var a Acc
	a.Add(1)
	a.Add(3)
	s := a.Summary()
	if s.N != 2 || s.Mean != 2 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if p := Percentile(xs, 0); p != 15 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 50 {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); p != 35 {
		t.Errorf("p50 = %v", p)
	}
	if p := Percentile(xs, 25); p != 20 {
		t.Errorf("p25 = %v", p)
	}
	// Input must not be mutated.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile mutated input")
	}
	if p := Percentile([]float64{7}, 60); p != 7 {
		t.Errorf("singleton percentile = %v", p)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { Percentile(nil, 50) }},
		{"below", func() { Percentile([]float64{1}, -1) }},
		{"above", func() { Percentile([]float64{1}, 101) }},
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

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large Acc
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 5))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 5))
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI95 did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}
