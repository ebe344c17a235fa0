package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"idde/internal/model"
	"idde/internal/obs"
)

// TestOutcomeHashPinned pins the absolute OutcomeHash and the retry,
// failover and cloud-fallback totals of three small soaks with hedging
// off: one healthy, one through the outage drill, and one with every
// source alive but half of all hop attempts lost, which pins the
// per-visit retry bound (a budget of 3, or a loop that stops one
// attempt early, moves its counters). The hash folds every request's
// served source, latency bits, retries, failovers and flags, so any
// drift in the rng streams (the per-request lazy source, Split/SplitN
// derivation) or in Eq. 8 routing (the plan's nearest-replica table)
// fails here. The literals are reference
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

	// Half of all hop attempts lost, every source alive: visits exhaust
	// the default per-visit budget (2 retries after the first attempt)
	// often enough that one retry more or less moves every counter.
	lossy := testOptions(3)
	lossy.Faults.LossProb = 0.5

	for _, tc := range []struct {
		name                          string
		opt                           Options
		want                          string
		retries, failovers, fallbacks int64
	}{
		{"healthy", healthy, "5157ada8a071ac9a", 24, 0, 0},
		{"outage", outage, "f0bb76bf91bebf04", 65, 247, 24},
		{"lossy", lossy, "59f3b6dbbe9abac2", 791, 109, 1},
	} {
		rep, err := Run(context.Background(), in, st, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.OutcomeHash != tc.want {
			t.Errorf("%s soak: OutcomeHash = %s, want %s (issued %d, degraded %d, retries %d, replans %d)",
				tc.name, rep.OutcomeHash, tc.want, rep.Issued, rep.Degraded, rep.Retries, rep.Replans)
		}
		if rep.Retries != tc.retries || rep.Failovers != tc.failovers || rep.CloudFallbacks != tc.fallbacks {
			t.Errorf("%s soak: retries/failovers/cloud fallbacks = %d/%d/%d, want %d/%d/%d",
				tc.name, rep.Retries, rep.Failovers, rep.CloudFallbacks, tc.retries, tc.failovers, tc.fallbacks)
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

// pinnedSoakOptions is the seed-7 outage soak with SLOs on that the
// report pins below run. twice adds a second outage window of the same
// server at t=15, so the faulted and recovered phases each span two
// separate runs of rounds (healthy 0–4, faulted 5–12 and 15–17,
// recovered 13–14 and 18–19).
func pinnedSoakOptions(in *model.Instance, st model.Strategy, twice bool) Options {
	opt := testOptions(7)
	opt.Campaign = outageCampaign(in, st)
	if twice {
		ev := opt.Campaign.Events[0]
		ev.At, ev.Duration = 15, 3
		opt.Campaign.Events = append(opt.Campaign.Events, ev)
	}
	opt.SLO = SLOOptions{Enabled: true}
	return opt
}

// TestSoakReportPinned pins the report side of two seed-7 outage soaks
// with SLOs on: every phase's round and request counts and exact
// nearest-rank percentiles, the breaker totals, and the latency SLO's
// histogram estimates. The outcomes are pinned by TestOutcomeHashPinned;
// this pins what the soak makes of them. The percentiles and MaxMs are
// order statistics, so any exact selection must reproduce them bit for
// bit. MeanMs is a float sum, whose last bits depend on the summation
// order, so it is checked to 1e-12 relative.
func TestSoakReportPinned(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	type phase struct {
		name                              string
		rounds                            int
		requests                          int64
		mean, p50, p90, p99, p999, maxLat float64
	}
	for _, tc := range []struct {
		name                    string
		twice                   bool
		phases                  []phase
		opens, transitions      int64
		estP50, estP99, estP999 float64
	}{
		{
			name: "one outage",
			phases: []phase{
				{"healthy", 5, 500, 8.260842344272417, 0, 22.04136609022791, 43.40060684241487, 60.02676121009977, 60.02676121009977},
				{"faulted", 8, 800, 39.35590000546265, 21.23049757794968, 150.00000000000003, 155.57294846184467, 160.00000000000003, 160.00000000000003},
				{"recovered", 7, 700, 9.734726804449794, 0, 28.70636278226293, 43.40060684241487, 44.46099515589937, 46.08273218045582},
			},
			opens: 3, transitions: 9,
			estP50: 1.937984496124031, estP99: 233.5438596491228, estP999: 253.75438596491227,
		},
		{
			name:  "two outages",
			twice: true,
			phases: []phase{
				{"healthy", 5, 500, 8.260842344272417, 0, 22.04136609022791, 43.40060684241487, 60.02676121009977, 60.02676121009977},
				{"faulted", 11, 1100, 38.86448121684894, 21.23049757794968, 150.00000000000003, 160.00000000000003, 160.00000000000003, 160.00000000000003},
				{"recovered", 4, 400, 11.433405913859918, 0, 34.273987136920255, 43.40060684241487, 78.24704201186091, 78.24704201186091},
			},
			opens: 5, transitions: 15,
			estP50: 8.585365853658537, estP99: 239.26797385620915, estP999: 254.32679738562092,
		},
	} {
		rep, err := Run(context.Background(), in, st, pinnedSoakOptions(in, st, tc.twice))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rep.Phases) != len(tc.phases) {
			t.Fatalf("%s: %d phases, want %d", tc.name, len(rep.Phases), len(tc.phases))
		}
		for i, w := range tc.phases {
			ps := rep.Phases[i]
			got := phase{ps.Phase, ps.Rounds, ps.Requests, w.mean, ps.P50Ms, ps.P90Ms, ps.P99Ms, ps.P999Ms, ps.MaxMs}
			if got != w {
				t.Errorf("%s: phase %d = %+v, want %+v", tc.name, i, got, w)
			}
			if d := math.Abs(ps.MeanMs - w.mean); d > 1e-12*math.Abs(w.mean) {
				t.Errorf("%s: %s MeanMs = %v, want %v within 1e-12 relative", tc.name, w.name, ps.MeanMs, w.mean)
			}
		}
		if rep.BreakerOpens != tc.opens || rep.BreakerTransitions != tc.transitions {
			t.Errorf("%s: breaker opens/transitions = %d/%d, want %d/%d",
				tc.name, rep.BreakerOpens, rep.BreakerTransitions, tc.opens, tc.transitions)
		}
		if len(rep.SLOs) != 2 {
			t.Fatalf("%s: %d SLO reports, want 2", tc.name, len(rep.SLOs))
		}
		lat := rep.SLOs[1]
		if lat.EstP50Ms != tc.estP50 || lat.EstP99Ms != tc.estP99 || lat.EstP999Ms != tc.estP999 {
			t.Errorf("%s: latency SLO estimates p50/p99/p999 = %v/%v/%v, want %v/%v/%v",
				tc.name, lat.EstP50Ms, lat.EstP99Ms, lat.EstP999Ms, tc.estP50, tc.estP99, tc.estP999)
		}
	}
}

// TestSoakLatencyMetricPinned pins what a soak with a metrics registry
// exports as serve_request_latency_ms: every bucket count, the count
// and the sum's exact bits. The histogram is fed once per request in
// fold order, so a batched feed must leave all three unchanged.
func TestSoakLatencyMetricPinned(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	opt := pinnedSoakOptions(in, st, true)
	opt.Obs = obs.Metrics()
	if _, err := Run(context.Background(), in, st, opt); err != nil {
		t.Fatal(err)
	}
	h := opt.Obs.Registry().Histogram("serve_request_latency_ms")
	want := map[int]int64{0: 991, 3: 123, 4: 413, 5: 248, 6: 72, 7: 153}
	for b, c := range h.Buckets() {
		if c != want[b] {
			t.Errorf("bucket %d = %d, want %d", b, c, want[b])
		}
	}
	if h.Count() != 2000 {
		t.Errorf("count = %d, want 2000", h.Count())
	}
	if got := math.Float64bits(h.Sum()); got != 0x40e91fd6cfe1c710 {
		t.Errorf("sum = %v (bits %#x), want 51454.71287621383 (bits 0x40e91fd6cfe1c710)", h.Sum(), got)
	}
}
