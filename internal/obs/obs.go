// Package obs is the solver telemetry layer: typed counters, gauges and
// log2-bucketed histograms behind a Registry, a phase-event tracer with
// a logical clock, and an opt-in live HTTP endpoint (pprof + expvar + a
// Prometheus-style /metrics dump).
//
// The design contract is "near-zero overhead when disabled": every
// engine hot path receives a *Scope that may be nil, and every Scope
// method is nil-safe and allocation-free on the nil receiver, so the
// instrumented loops cost one predictable branch when telemetry is off
// (guarded by AllocsPerRun in the package tests and by the model,
// shard and serve alloc guards). Call sites that must build attribute
// maps gate on Scope.Tracing first, so the map construction itself is
// also skipped when no tracer is attached.
//
// Determinism contract: the tracer timestamps events with a logical
// tick (one increment per recorded event), never wall clock, and args
// maps are marshaled by encoding/json, which sorts keys. Because every
// solver in this repository is deterministic for a fixed seed, two runs
// with the same seed emit byte-identical JSONL traces — the property
// the convergence-timeline tooling and the trace regression tests rely
// on.
package obs

// Scope bundles a metrics Registry and an event Tracer for one run. The
// nil *Scope is the disabled state: every method is a no-op. A Scope
// with a Registry but no Tracer collects counters without recording
// events (see Metrics).
type Scope struct {
	reg *Registry
	tr  *Tracer
}

// New returns a fully enabled Scope: metrics registry plus tracer.
func New() *Scope {
	return &Scope{reg: NewRegistry(), tr: NewTracer()}
}

// Metrics returns a metrics-only Scope: counters, gauges and histograms
// are collected, but no trace events are recorded (Tracing reports
// false, so traced hot paths skip their attribute construction).
func Metrics() *Scope {
	return &Scope{reg: NewRegistry()}
}

// Enabled reports whether any telemetry is collected.
func (s *Scope) Enabled() bool { return s != nil }

// Tracing reports whether phase events are recorded. Hot paths check it
// before building attribute maps.
func (s *Scope) Tracing() bool { return s != nil && s.tr != nil }

// Registry returns the scope's metrics registry (nil when disabled).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer returns the scope's tracer (nil when disabled or metrics-only).
func (s *Scope) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Count adds d to the named counter.
func (s *Scope) Count(name string, d int64) {
	if s == nil || s.reg == nil {
		return
	}
	s.reg.Counter(name).Add(d)
}

// SetGauge sets the named gauge.
func (s *Scope) SetGauge(name string, v float64) {
	if s == nil || s.reg == nil {
		return
	}
	s.reg.Gauge(name).Set(v)
}

// Observe records v into the named log2-bucketed histogram.
func (s *Scope) Observe(name string, v float64) {
	if s == nil || s.reg == nil {
		return
	}
	s.reg.Histogram(name).Observe(v)
}

// Begin opens a span. args may be nil.
func (s *Scope) Begin(cat, name string, args map[string]any) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.Begin(cat, name, args)
}

// End closes the most recent span with the given identity.
func (s *Scope) End(cat, name string) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.End(cat, name)
}

// Instant records a point event. args may be nil.
func (s *Scope) Instant(cat, name string, args map[string]any) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.Instant(cat, name, args)
}
