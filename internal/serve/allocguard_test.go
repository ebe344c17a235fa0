// Alloc guards for the serving hot paths: the flight recorder's
// sampling-off request path, a healthy served request and the round
// barrier. The race detector instruments allocations, so these only run
// in the plain tier-1 `go test ./...` pass.
//
//go:build !race

package serve

import (
	"runtime"
	"testing"

	"idde/internal/obs"
	"idde/internal/rng"
	"idde/internal/units"
)

// TestSamplingOffPathZeroAllocs pins the tentpole's overhead contract:
// the per-request cost of the flight recorder when a request is NOT
// sampled — the Sample gate plus the rec==nil instrumentation gates
// inside evalRequest — is exactly zero additional allocations.
func TestSamplingOffPathZeroAllocs(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	e, err := NewEngine(in, st, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	v, _, err := e.snapshotLocked(0)
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	pairs := requestPairs(in)
	root := rng.New(1)

	// Baseline: the request path with no recorder in the build at all.
	measure := func(f *obs.FlightRecorder) float64 {
		i := 0
		return testing.AllocsPerRun(2000, func() {
			s := root.SplitN("req", i)
			if f.Sample(s.Seed()) {
				t.Fatal("rate-0 recorder sampled")
			}
			p := pairs[i%len(pairs)]
			var out RequestOutcome
			evalRequest(v, p[0], p[1], s, &out, nil)
			i++
		})
	}
	baseline := measure(nil)
	gated := measure(obs.NewFlightRecorder(64, 0, 1))
	if gated != baseline {
		t.Fatalf("sampling-off gate costs %.2f allocs/op (baseline %.2f), want 0 extra", gated, baseline)
	}
}

// TestRequestPathZeroAllocs pins the healthy served request at zero
// allocations, on the path the soak loop takes: the per-request stream
// re-rooted by the soak's "req" Splitter, then evalRequest filling the
// slot's outcome in place over its previous visit list. The lazily
// seeded source builds no register for a stream this short. An eagerly
// seeded 4.9 KB register, a fresh Stream or rand.Rand per request, an
// fnv hasher or a label copy coming back fails this test.
func TestRequestPathZeroAllocs(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	e, err := NewEngine(in, st, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	v, _, err := e.snapshotLocked(0)
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	pairs := requestPairs(in)
	reqStreams := rng.New(1).Splitter("req")
	s := new(rng.Stream)
	out := RequestOutcome{visits: make([]visit, 0, 4)}
	i := 0
	got := testing.AllocsPerRun(2000, func() {
		p := pairs[i%len(pairs)]
		reqStreams.Into(s, i)
		evalRequest(v, p[0], p[1], s, &out, nil)
		i++
	})
	if got != 0 {
		t.Fatalf("healthy request path: %.2f allocs/request, want 0", got)
	}
}

// TestFoldRoundZeroAllocs pins the round barrier at zero allocations
// once the soak's buffers exist: foldRound (breakers, health, the
// outcome hash, the SLO burn rates, the metrics registry and both
// latency histograms) plus observeRound (the phase span and the
// timeline row). The rounds after the first are counted exactly with
// runtime.MemStats rather than averaged, so a buffer that grows by
// doubling fails here although its amortised cost per round is below
// one allocation.
func TestFoldRoundZeroAllocs(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	opt := testOptions(1)
	opt.SLO = SLOOptions{Enabled: true}
	opt.Obs = obs.Metrics()
	e, err := NewEngine(in, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	v, _, err := e.snapshotLocked(0)
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	pairs := requestPairs(in)
	reqStreams := rng.New(1).Splitter("req")
	s := new(rng.Stream)
	outcomes := make([]RequestOutcome, e.opt.RPS)
	for i := range outcomes {
		p := pairs[i%len(pairs)]
		reqStreams.Into(s, i)
		evalRequest(v, p[0], p[1], s, &outcomes[i], nil)
	}

	const rounds = 200
	rep := newSoakReport(&e.opt, rounds, len(outcomes))
	hash := newOutcomeHash()
	fold := func(r int) {
		now := units.Seconds(r)
		agg := e.foldRound(r, now, outcomes, &hash, rep)
		rep.observeRound(r, now, agg, true, e.plan.load().Epoch)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fold(0) // creates the phase, its span and the SLO epoch cells
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 1; r < rounds; r++ {
		fold(r)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("round barrier: %d allocations over %d rounds, want 0", n, rounds-1)
	}
	if got := len(rep.roundLatencies()); got != 0 || len(rep.latMs) != rounds*len(outcomes) {
		t.Fatalf("latency buffer holds %d values (%d unassigned), want %d", len(rep.latMs), got, rounds*len(outcomes))
	}
}
