package game

import (
	"testing"

	"idde/internal/obs"
)

// TestResolveGameOptionsDefaultsZeroValue: an unset zero-value Options
// must be replaced by the engine defaults, and a telemetry scope alone
// does not count as configuration.
func TestResolveGameOptionsDefaultsZeroValue(t *testing.T) {
	if got := (Options{}).Resolve(); got != DefaultOptions() {
		t.Fatalf("zero-value options resolved to %+v, want DefaultOptions %+v",
			got, DefaultOptions())
	}
	sc := obs.New()
	want := DefaultOptions()
	want.Obs = sc
	if got := (Options{Obs: sc}).Resolve(); got != want {
		t.Fatalf("scope-only options resolved to %+v, want defaults carrying the scope", got)
	}
}

// TestResolveGameOptionsPassesThroughNonZero: any configured options
// survive untouched.
func TestResolveGameOptionsPassesThroughNonZero(t *testing.T) {
	o := Options{Policy: RoundRobin, Epsilon: 1e-6, MaxUpdates: 5}
	if got := o.Resolve(); got != o {
		t.Fatalf("configured options mutated: got %+v want %+v", got, o)
	}
}
