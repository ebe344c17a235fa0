package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone int64 metric. The zero value is ready to use;
// all methods are safe for concurrent use and nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 metric. The zero value is ready to
// use; all methods are safe for concurrent use and nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reports the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of a log2 histogram: bucket 0
// holds v < 2, bucket b holds v in [2^b, 2^(b+1)), and the last bucket
// absorbs everything beyond 2^62 (including +Inf).
const histBuckets = 63

// Histogram is a log2-bucketed distribution of non-negative float64
// observations. Fixed power-of-two bucket boundaries keep Observe
// allocation-free and branch-cheap (one bits.Len64), which is what lets
// engines histogram per-round quantities without a tuning knob.
// ObserveAll takes a batch for the cost of one atomic add per bucket it
// touches and one sum update.
type Histogram struct {
	counts  [histBuckets]atomic.Int64
	n       atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// histBucketOf maps an observation to its bucket index.
func histBucketOf(v float64) int {
	if !(v >= 2) { // v < 2, NaN and negatives all land in bucket 0
		return 0
	}
	if v >= math.MaxInt64 {
		return histBuckets - 1
	}
	b := bits.Len64(uint64(v)) - 1 // v in [2^b, 2^(b+1))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// HistBucketUpper reports bucket b's inclusive Prometheus "le" upper
// bound: 2^(b+1) (the final bucket is +Inf).
func HistBucketUpper(b int) float64 {
	if b >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, b+1)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[histBucketOf(v)].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveAll records every value of vs, in slice order. Buckets, count
// and sum bits end up as after len(vs) Observe calls: bucket counts are
// summed locally and added once per non-empty bucket, and the sum is
// folded from the current value in slice order and stored with one
// compare-and-swap, the whole fold retried if another writer got in
// first.
func (h *Histogram) ObserveAll(vs []float64) {
	if h == nil || len(vs) == 0 {
		return
	}
	var counts [histBuckets]int64
	for _, v := range vs {
		counts[histBucketOf(v)]++
	}
	for b, c := range counts {
		if c != 0 {
			h.counts[b].Add(c)
		}
	}
	h.n.Add(int64(len(vs)))
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old)
		for _, v := range vs {
			s += v
		}
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// histBucketLower reports bucket b's inclusive lower bound: 0 for
// bucket 0 (which also absorbs negatives and NaN), 2^b otherwise.
func histBucketLower(b int) float64 {
	if b == 0 {
		return 0
	}
	return math.Ldexp(1, b)
}

// Quantile estimates the p-quantile (p in [0,1]) of the observed
// distribution from the log2 buckets, interpolating linearly within the
// bucket that contains the target rank.
//
// Error bound: the true quantile and the estimate always lie in the same
// bucket [2^b, 2^(b+1)), so the estimate is within one bucket width of
// the truth — a relative error strictly below a factor of 2 for values
// ≥ 2, and an absolute error below 2 for bucket 0 (values in [0,2); the
// final bucket is interpolated over [2^62, 2^63) and clamps the far
// tail). That is the precision the SLO burn-rate surfaces need: which
// power-of-two regime the tail sits in, not its third significant digit.
// With no observations it reports 0; p outside [0,1] is clamped.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	n := h.Count()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(n)
	var cum int64
	buckets := h.Buckets()
	for b, c := range buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) >= rank {
			lo := histBucketLower(b)
			hi := math.Ldexp(1, b+1) // last bucket: interpolate over [2^62, 2^63)
			frac := (rank - float64(prev)) / float64(c)
			return lo + frac*(hi-lo)
		}
	}
	// Unreachable for n > 0; keep the zero-value contract anyway.
	return 0
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets reports the per-bucket counts (index b covers [2^b, 2^(b+1)),
// with bucket 0 additionally holding everything below 2).
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Registry is a named collection of metrics. Get-or-create accessors
// make instrumentation sites self-registering: the first Counter(name)
// call creates the metric, later calls return the same instance, so a
// legacy stats struct and the registry can be fed from one code path
// and never drift. All methods are safe for concurrent use and nil-safe
// (a nil registry returns nil metrics, whose methods are no-ops).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// sortedKeys returns the map's keys in ascending order; every exporter
// walks metrics through it so dumps are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns a deterministic flat view of every metric: counters
// as int64, gauges as float64, histograms expanded to _count and _sum
// entries plus _p50/_p99/_p999 Quantile estimates. Used by the expvar
// publication and the tests.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+"_count"] = h.Count()
		out[name+"_sum"] = h.Sum()
		out[name+"_p50"] = h.Quantile(0.50)
		out[name+"_p99"] = h.Quantile(0.99)
		out[name+"_p999"] = h.Quantile(0.999)
	}
	return out
}

// WritePrometheus dumps every metric in the Prometheus text exposition
// format, sorted by name so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for _, name := range sortedKeys(counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		buckets := h.Buckets()
		var cum int64
		for b, c := range buckets {
			cum += c
			if c == 0 && b != histBuckets-1 {
				continue // sparse dump; cumulative counts stay exact
			}
			le := "+Inf"
			if ub := HistBucketUpper(b); !math.IsInf(ub, 1) {
				le = fmt.Sprintf("%g", ub)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum(), name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}
