package des

import (
	"testing"

	"idde/internal/rng"
)

func TestUniformArrivals(t *testing.T) {
	u := uniform{Window: 10}
	ts := u.Times(1000, rng.New(1))
	if len(ts) != 1000 {
		t.Fatalf("n = %d", len(ts))
	}
	for _, v := range ts {
		if v < 0 || v >= 10 {
			t.Fatalf("arrival %v outside window", v)
		}
	}
	// Zero window: synchronized burst.
	for _, v := range (uniform{}).Times(10, rng.New(2)) {
		if v != 0 {
			t.Fatal("zero-window arrival not at 0")
		}
	}
}
