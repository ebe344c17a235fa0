package serve

import (
	"context"
	"testing"
)

// TestOutcomeHashPinned pins the absolute OutcomeHash of two small soaks
// with hedging off: one healthy, one through the outage drill. The hash
// folds every request's served source, latency bits, retries, failovers
// and flags, so any drift in the rng streams (the per-request lazy
// source, Split/SplitN derivation) or in Eq. 8 routing (the plan's
// nearest-replica table) fails here. The literals are reference
// outcomes, matching the literal Eq. 8 scan and math/rand's own seeding:
// a change that moves them changes what the data plane serves, so they
// are not to be regenerated to make a change pass.
func TestOutcomeHashPinned(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)

	healthy := testOptions(1)
	outage := testOptions(7)
	outage.Campaign = outageCampaign(in, st)
	outage.Faults.StallProb, outage.Faults.StallTime = 0.05, 0.05
	// 400 requests a round: each round's mix stream draws past the 273
	// draws the lazy source computes directly, into its math/rand
	// continuation.
	outage.RPS = 400

	for _, tc := range []struct {
		name string
		opt  Options
		want string
	}{
		{"healthy", healthy, "5157ada8a071ac9a"},
		{"outage", outage, "f0bb76bf91bebf04"},
	} {
		rep, err := Run(context.Background(), in, st, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.OutcomeHash != tc.want {
			t.Errorf("%s soak: OutcomeHash = %s, want %s (issued %d, degraded %d, retries %d, replans %d)",
				tc.name, rep.OutcomeHash, tc.want, rep.Issued, rep.Degraded, rep.Retries, rep.Replans)
		}
	}
}
