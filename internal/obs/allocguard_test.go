// Alloc guards for the "near-zero overhead when disabled" contract.
// The race detector instruments allocations, so these only run in the
// plain tier-1 `go test ./...` pass.
//
//go:build !race

package obs

import "testing"

// TestNilScopeZeroAllocs proves the disabled state costs nothing on the
// hot paths: every emitter call on a nil *Scope must be allocation-free,
// since that is exactly what the instrumented engine loops execute when
// no telemetry is attached.
func TestNilScopeZeroAllocs(t *testing.T) {
	var s *Scope
	if n := testing.AllocsPerRun(1000, func() {
		s.Count("game_rounds_total", 1)
		s.SetGauge("solve_last_avg_rate_mbps", 1.5)
		s.Observe("game_round_evals", 40)
		if s.Tracing() {
			t.Fatal("nil scope tracing")
		}
	}); n != 0 {
		t.Fatalf("nil scope emitters allocate %.1f/op, want 0", n)
	}
}

// TestMetricsScopeZeroAllocs proves a metrics-only scope keeps the
// steady state allocation-free too: after the first get-or-create, the
// counter/gauge/histogram writes and the Tracing gate (which is what
// keeps attribute maps from being built) allocate nothing.
func TestMetricsScopeZeroAllocs(t *testing.T) {
	s := Metrics()
	// Warm the registry so the measured loop is steady state.
	s.Count("c", 0)
	s.SetGauge("g", 0)
	s.Observe("h", 0)
	if n := testing.AllocsPerRun(1000, func() {
		s.Count("c", 1)
		s.SetGauge("g", 2.5)
		s.Observe("h", 17)
		if s.Tracing() {
			t.Fatal("metrics scope tracing")
		}
	}); n != 0 {
		t.Fatalf("metrics scope emitters allocate %.1f/op, want 0", n)
	}
}

// TestHistogramObserveZeroAllocs pins the Observe fast path itself.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := &Histogram{}
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(3)
		h.Observe(1024)
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op, want 0", n)
	}
}

// TestFlightSampleZeroAllocs pins the flight recorder's per-request
// gate: Sample is the only flight call the serving hot path makes for
// unsampled requests (and for every request when sampling is off), so
// both the nil-recorder and rate-0 forms must be allocation-free.
func TestFlightSampleZeroAllocs(t *testing.T) {
	var nilF *FlightRecorder
	off := NewFlightRecorder(64, 0, 42)
	on := NewFlightRecorder(64, 0.5, 42)
	if n := testing.AllocsPerRun(1000, func() {
		if nilF.Sample(123456789) {
			t.Fatal("nil recorder sampled")
		}
		if off.Sample(123456789) {
			t.Fatal("rate-0 recorder sampled")
		}
		on.Sample(123456789) // the decision itself is alloc-free either way
	}); n != 0 {
		t.Fatalf("FlightRecorder.Sample allocates %.1f/op, want 0", n)
	}
}
