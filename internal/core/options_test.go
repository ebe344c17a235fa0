package core

import (
	"testing"

	"idde/internal/game"
)

// TestSolveHonorsExplicitZeroGameOptions runs Solve end to end with an
// explicit all-zero game configuration and checks the configuration
// actually took effect: with no PerPlayerCap, no player can be frozen.
func TestSolveHonorsExplicitZeroGameOptions(t *testing.T) {
	in := genInstance(t, 6, 30, 4, 1.0, 3)
	res := Solve(in, Options{Game: game.NewOptions(game.Options{})})
	if res.Phase1.Frozen != 0 {
		t.Fatalf("explicit zero options (no PerPlayerCap) froze %d players — defaults leaked in",
			res.Phase1.Frozen)
	}
	if !res.Phase1.Converged {
		t.Fatalf("dynamics did not converge under explicit zero options: %+v", res.Phase1)
	}
}

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
