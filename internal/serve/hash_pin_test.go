package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
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

// TestFlightDumpPinned pins one flight-enabled outage soak end to end:
// SHA-256 digests of the retained ring's JSONL and of the triggered-dump
// stream, plus the run's OutcomeHash. The ring and the dumps are a pure
// function of the seed (label-derived sampling, request-order appends,
// eviction only at the round barrier), so any drift in which requests
// are sampled, what their records carry, when dumps fire or how the ring
// evicts fails here. A second seed must move all three.
func TestFlightDumpPinned(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	run := func(seed uint64) (ring, dumps, hash string) {
		opt := testOptions(seed)
		opt.Campaign = outageCampaign(in, st)
		opt.SLO = SLOOptions{Enabled: true}
		opt.FlightRate = 0.2
		opt.FlightCap = 512
		sink := &bytes.Buffer{}
		opt.FlightSink = sink
		e, err := NewEngine(in, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.RunSoak(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.flight.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 || sink.Len() == 0 || rep.FlightDumps == 0 {
			t.Fatalf("seed %d: ring %d bytes, dumps %d bytes (%d dumps), want all > 0",
				seed, buf.Len(), sink.Len(), rep.FlightDumps)
		}
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())),
			fmt.Sprintf("%x", sha256.Sum256(sink.Bytes())), rep.OutcomeHash
	}

	ring, dumps, hash := run(7)
	const (
		wantRing  = "47898aa0cd4a029bdc5b278cab3531f27e97571203ec56e257b981e61716f383"
		wantDumps = "0a36532963826846326ee726d3e6c16f86137eaf137f6dd68560164402df68e4"
		wantHash  = "3cc170188eb74adc"
	)
	if ring != wantRing {
		t.Errorf("flight ring JSONL sha256 = %s, want %s", ring, wantRing)
	}
	if dumps != wantDumps {
		t.Errorf("triggered-dump stream sha256 = %s, want %s", dumps, wantDumps)
	}
	if hash != wantHash {
		t.Errorf("OutcomeHash = %s, want %s", hash, wantHash)
	}

	ring8, dumps8, hash8 := run(8)
	if ring8 == ring || dumps8 == dumps || hash8 == hash {
		t.Errorf("seeds 7 and 8 collide: ring %v, dumps %v, hash %v", ring8 == ring, dumps8 == dumps, hash8 == hash)
	}
}
