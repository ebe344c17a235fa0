package core

import (
	"testing"

	"idde/internal/game"
)

// TestReferenceOptionsShape pins down what the reference configuration
// means: literal full-scan rounds over the naive interference evaluator,
// otherwise identical to the defaults.
func TestReferenceOptionsShape(t *testing.T) {
	ref := ReferenceOptions()
	if !ref.Game.FullScan || !ref.NaiveInterference {
		t.Fatalf("ReferenceOptions must force FullScan and NaiveInterference: %+v", ref)
	}
	want := game.DefaultOptions()
	want.FullScan = true
	if ref.Game != want {
		t.Fatalf("ReferenceOptions game config drifted from defaults: %+v", ref.Game)
	}
}
