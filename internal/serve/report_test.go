package serve

import (
	"math"
	"slices"
	"sort"
	"testing"

	"idde/internal/rng"
)

// quantile returns the q-quantile of sorted (ascending) samples using
// the nearest-rank method: the reference the report's selection is
// checked against.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(q*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// fuzzLatencies builds n latencies of one of several shapes from seed:
// heavy ties, a wide spread with ±Inf and NaN mixed in, sorted,
// reversed, constant, organ-pipe, and mostly zero with a long tail.
// Negative zero is left out: -0 and +0 compare equal, so which of the
// two lands at a rank is unspecified for the sort and the selection
// alike.
func fuzzLatencies(seed uint64, n int, shape uint8) []float64 {
	s := rng.New(seed).Split("lat")
	special := []float64{0, 1, 2.5, 150.00000000000003, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	lat := make([]float64, n)
	switch shape % 7 {
	case 0: // heavy ties: a handful of distinct values
		for i := range lat {
			lat[i] = float64(s.IntN(4))
		}
	case 1: // wide spread, with the special values mixed in
		for i := range lat {
			if s.IntN(8) == 0 {
				lat[i] = special[s.IntN(len(special))]
			} else {
				lat[i] = (s.Float64() - 0.25) * 1e3
			}
		}
	case 2, 3: // sorted, then reversed
		for i := range lat {
			lat[i] = float64(s.IntN(n + 1))
		}
		slices.Sort(lat)
		if shape%7 == 3 {
			slices.Reverse(lat)
		}
	case 4: // constant
		v := special[s.IntN(len(special))]
		for i := range lat {
			lat[i] = v
		}
	case 5: // organ pipe: ascending then descending
		for i := range lat {
			lat[i] = float64(min(i, n-1-i))
		}
	default: // mostly zero-latency local hits, a long retry tail
		for i := range lat {
			if s.IntN(10) < 7 {
				lat[i] = 0
			} else {
				lat[i] = s.Float64() * 200 * float64(1+s.IntN(8))
			}
		}
	}
	return lat
}

// sameFloat reports bit-identical values, counting any two NaNs as the
// same: a sum's NaN payload depends on the operand order the compiler
// picks for the add.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzPhaseQuantilesMatchSort checks the report's selection against the
// sort it replaced: for fuzzed inputs of up to 4096 values, every
// percentile and MaxMs summarizeLatencies places must equal, bit for
// bit, the nearest-rank value of a sorted copy, and MeanMs must be the
// fold-order sum over n.
func FuzzPhaseQuantilesMatchSort(f *testing.F) {
	for shape := uint8(0); shape < 7; shape++ {
		f.Add(uint64(shape), uint16(1), shape)
		f.Add(uint64(shape)+7, uint16(13), shape)
		f.Add(uint64(shape)+14, uint16(1000), shape)
		f.Add(uint64(shape)+21, uint16(4096), shape)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, shape uint8) {
		n := int(n16)%4096 + 1
		lat := fuzzLatencies(seed, n, shape)
		sum := 0.0
		for _, v := range lat {
			sum += v
		}
		sorted := slices.Clone(lat)
		sort.Float64s(sorted)

		var ps PhaseStats
		ps.summarizeLatencies(lat)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"p50", ps.P50Ms, quantile(sorted, 0.50)},
			{"p90", ps.P90Ms, quantile(sorted, 0.90)},
			{"p99", ps.P99Ms, quantile(sorted, 0.99)},
			{"p999", ps.P999Ms, quantile(sorted, 0.999)},
			{"max", ps.MaxMs, sorted[n-1]},
			{"mean", ps.MeanMs, sum / float64(n)},
		} {
			if !sameFloat(c.got, c.want) {
				t.Fatalf("n=%d shape=%d: %s = %v, want %v", n, shape%7, c.name, c.got, c.want)
			}
		}
		slices.Sort(lat)
		if !slices.EqualFunc(lat, sorted, sameFloat) {
			t.Fatalf("n=%d shape=%d: selection lost or changed values", n, shape%7)
		}
	})
}
