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
	if a.n != 8 {
		t.Errorf("n = %d", a.n)
	}
	if a.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if math.Abs(a.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", a.Var(), 32.0/7.0)
	}
	if a.min != 2 || a.max != 9 {
		t.Errorf("min/max = %v/%v", a.min, a.max)
	}
}

func TestAccEmptyAndSingle(t *testing.T) {
	var a Acc
	if a.Mean() != 0 || a.Var() != 0 || a.CI95() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	a.Add(3)
	if a.Mean() != 3 || a.Var() != 0 || a.min != 3 || a.max != 3 {
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
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
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
