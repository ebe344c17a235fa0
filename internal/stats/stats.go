// Package stats provides the descriptive statistics used by the
// experiment harness: each data point in the paper's figures is the
// average of 50 independent runs (§4.3), so the harness accumulates
// per-run metrics here and reports means with dispersion.
package stats

import (
	"fmt"
	"math"
)

// Acc accumulates scalar observations with Welford's online algorithm,
// which stays numerically stable for long runs. The zero value is ready
// to use.
type Acc struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Acc) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Mean reports the sample mean (0 when empty).
func (a *Acc) Mean() float64 { return a.mean }

// Var reports the unbiased sample variance (0 with fewer than two
// observations).
func (a *Acc) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std reports the sample standard deviation.
func (a *Acc) Std() float64 { return math.Sqrt(a.Var()) }

// CI95 reports the half-width of the ~95% confidence interval on the
// mean, using the normal approximation (adequate at the 50 replicas the
// harness runs).
func (a *Acc) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.Std() / math.Sqrt(float64(a.n))
}

// Summary snapshots an accumulator into a value type.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	CI95      float64
}

// Summary returns a snapshot of the accumulator.
func (a *Acc) Summary() Summary {
	return Summary{N: a.n, Mean: a.Mean(), Std: a.Std(), Min: a.min, Max: a.max, CI95: a.CI95()}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g (std=%.3g, min=%.4g, max=%.4g)",
		s.N, s.Mean, s.CI95, s.Std, s.Min, s.Max)
}
