package serve

import (
	"testing"

	"idde/internal/units"
)

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: 2})
	// admit applies the data plane's admission rule to the breaker's
	// state at now, as evalRequest does on the round snapshot.
	admit := func(now units.Seconds, probeDraw float64) bool {
		return b.State(now).admits(probeDraw)
	}
	if s := b.State(0); s != Closed {
		t.Fatalf("new breaker state = %v, want closed", s)
	}
	if !admit(0, 0.99) {
		t.Fatal("closed breaker must admit everyone")
	}

	// Two failures: still closed. Third: open.
	b.Record(0, false)
	b.Record(0, false)
	if s := b.State(0); s != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", s)
	}
	b.Record(0, false)
	if s := b.State(0); s != Open {
		t.Fatalf("state after 3 failures = %v, want open", s)
	}
	if admit(1, 0.0) {
		t.Fatal("open breaker must reject")
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("opens = %d, want 1", got)
	}

	// A success resets the consecutive-failure streak while closed.
	b2 := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: 2})
	b2.Record(0, false)
	b2.Record(0, false)
	b2.Record(0, true)
	b2.Record(0, false)
	b2.Record(0, false)
	if s := b2.State(0); s != Closed {
		t.Fatalf("streak should reset on success; state = %v", s)
	}

	// Open -> half-open after the timeout; probe admission is the draw.
	if s := b.State(2.5); s != HalfOpen {
		t.Fatalf("state after open timeout = %v, want half-open", s)
	}
	if admit(2.5, probeFraction) {
		t.Fatal("half-open must reject draws >= probe fraction")
	}
	if !admit(2.5, 0.9*probeFraction) {
		t.Fatal("half-open must admit draws < probe fraction")
	}

	// One probe failure re-opens immediately.
	b.Record(2.5, false)
	if s := b.State(2.5); s != Open {
		t.Fatalf("state after probe failure = %v, want open", s)
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}

	// Next half-open: enough consecutive probe successes close it.
	if s := b.State(5); s != HalfOpen {
		t.Fatalf("state = %v, want half-open", s)
	}
	for i := 1; i < probeSuccesses; i++ {
		b.Record(5, true)
		if s := b.State(5); s != HalfOpen {
			t.Fatalf("%d probe successes should not close; state = %v", i, s)
		}
	}
	b.Record(5, true)
	if s := b.State(5); s != Closed {
		t.Fatalf("state after probe successes = %v, want closed", s)
	}
}

func TestBreakerOpenFailureRefreshesTimeout(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: 2})
	b.Record(0, false) // opens at t=0
	if s := b.State(1); s != Open {
		t.Fatalf("state = %v, want open", s)
	}
	b.Record(1.5, false) // late failure refreshes openedAt
	if s := b.State(2.5); s != Open {
		t.Fatalf("timeout should have been refreshed; state = %v", s)
	}
	if s := b.State(3.6); s != HalfOpen {
		t.Fatalf("state = %v, want half-open", s)
	}
}

func TestBreakerDefaults(t *testing.T) {
	c := BreakerConfig{}.withDefaults()
	if c.FailureThreshold <= 0 || c.OpenTimeout <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Fatal("state names changed")
	}
}
