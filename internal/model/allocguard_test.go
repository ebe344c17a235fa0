//go:build !race

package model

import (
	"testing"

	"idde/internal/rng"
)

// Steady-state zero-allocation guards for the Phase 1 and Phase 2 hot
// paths: Ledger benefit, rate and SINR evaluation with warm aggregate
// rows, the Ledger.Best scan, Ledger.Move maintaining the rows, the
// sparse GainRow reads, and the cohort oracle's GainOf.
// The race detector instruments allocations, so the file is excluded
// from -race runs; the plain tier-1 `go test ./...` always runs it, and
// so does CI's zero-alloc step.

// guardFixture builds a warm, fully-allocated ledger plus probe batches.
func guardFixture(t *testing.T) (*Ledger, Allocation, []int, []Alloc) {
	t.Helper()
	in := genInstance(t, 12, 90, 5, 3)
	s := rng.New(19)
	l := NewLedger(in, NewAllocation(in.M()))
	fillRandom(in, l, s)
	l.WarmAggregates()
	var js []int
	var as []Alloc
	for len(js) < 64 {
		j := s.IntN(in.M())
		vs := in.Top.Coverage[j]
		if len(vs) == 0 {
			continue
		}
		i := vs[s.IntN(len(vs))]
		js = append(js, j)
		as = append(as, Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
	}
	return l, l.Alloc(), js, as
}

func TestBenefitSteadyStateZeroAllocs(t *testing.T) {
	l, _, js, as := guardFixture(t)
	var bi int
	if avg := testing.AllocsPerRun(200, func() {
		_ = l.Benefit(js[bi], as[bi])
		bi = (bi + 1) % len(js)
	}); avg != 0 {
		t.Fatalf("Ledger.Benefit allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

func TestRateSINRSteadyStateZeroAllocs(t *testing.T) {
	l, _, js, as := guardFixture(t)
	var bi int
	if avg := testing.AllocsPerRun(200, func() {
		_ = l.Rate(js[bi], as[bi])
		_ = l.SINR(js[bi], as[bi])
		bi = (bi + 1) % len(js)
	}); avg != 0 {
		t.Fatalf("Ledger.Rate/SINR allocate %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestMoveSteadyStateZeroAllocs pins Move's upkeep of the warm rows:
// once the occupant lists have grown to hold the probed decisions,
// moving users back and forth must not allocate.
func TestMoveSteadyStateZeroAllocs(t *testing.T) {
	l, alloc, js, as := guardFixture(t)
	var bi int
	if avg := testing.AllocsPerRun(200, func() {
		j := js[bi]
		l.Move(j, as[bi])
		l.Move(j, alloc[j])
		bi = (bi + 1) % len(js)
	}); avg != 0 {
		t.Fatalf("Ledger.Move allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestBenefitMemoMissZeroAllocs pins the memo's miss path: moving a
// user away and back invalidates its entries, so the probe that follows
// recomputes and stores the value, and none of it may allocate.
func TestBenefitMemoMissZeroAllocs(t *testing.T) {
	l, alloc, js, as := guardFixture(t)
	for bi := range js {
		_ = l.Benefit(js[bi], as[bi]) // build the memo
	}
	var bi int
	if avg := testing.AllocsPerRun(200, func() {
		j := js[bi]
		l.Move(j, Unallocated)
		l.Move(j, alloc[j])
		_ = l.Benefit(j, as[bi])
		bi = (bi + 1) % len(js)
	}); avg != 0 {
		t.Fatalf("Ledger.Benefit memo misses allocate %.2f allocs/op, want 0", avg)
	}
}

// TestGainRowZeroAllocs pins the sparse gain accessors at zero
// allocations per read: obtaining a row, binary-searched in-support
// reads, and the out-of-support recompute fallback must all stay off
// the heap — GainRow is a value and the fallback is pure arithmetic.
func TestGainRowZeroAllocs(t *testing.T) {
	in := genInstance(t, 12, 90, 5, 3)
	sp, err := NewSparse(in.Top, in.Wl, in.Radio, in.Top.MaxRadius())
	if err != nil {
		t.Fatal(err)
	}
	cols := sp.GainRow(0).cols
	if len(cols) == 0 || len(cols) == sp.M() {
		t.Fatalf("tight-cutoff row 0 has trivial support %d of %d", len(cols), sp.M())
	}
	inSupport := int(cols[len(cols)/2])
	outSupport := -1
	seen := make([]bool, sp.M())
	for _, c := range cols {
		seen[c] = true
	}
	for j := range seen {
		if !seen[j] {
			outSupport = j
			break
		}
	}
	if outSupport < 0 {
		t.Fatal("no out-of-support column to probe")
	}
	if avg := testing.AllocsPerRun(200, func() {
		r := sp.GainRow(0)
		_ = r.At(inSupport)
		_ = r.At(outSupport)
		_ = sp.GainAt(1%sp.N(), outSupport)
	}); avg != 0 {
		t.Fatalf("sparse gain reads allocate %.2f allocs/op, want 0", avg)
	}
}

func TestCohortGainOfSteadyStateZeroAllocs(t *testing.T) {
	l, alloc, _, _ := guardFixture(t)
	in := l.in
	s := rng.New(23)
	ls := NewCohortLatencyState(in, alloc, nil)
	// Commit a couple of replicas so deferred folds are in play, then
	// measure the evaluation loop.
	ls.Commit(s.IntN(in.N()), s.IntN(in.K()))
	ls.Commit(s.IntN(in.N()), s.IntN(in.K()))
	var gi int
	is := make([]int, 64)
	ks := make([]int, 64)
	for x := range is {
		is[x], ks[x] = s.IntN(in.N()), s.IntN(in.K())
	}
	if avg := testing.AllocsPerRun(200, func() {
		_ = ls.GainOf(is[gi], ks[gi])
		gi = (gi + 1) % len(is)
	}); avg != 0 {
		t.Fatalf("CohortLatencyState.GainOf allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestLedgerBestSteadyStateZeroAllocs pins the Eq. 12 best-response
// scan over a user's full decision set, memo hits and misses alike.
func TestLedgerBestSteadyStateZeroAllocs(t *testing.T) {
	l, alloc, js, as := guardFixture(t)
	var bi int
	if avg := testing.AllocsPerRun(200, func() {
		j := js[bi]
		_, _, _ = l.Best(j, l.in.Top.Coverage[j])
		l.Move(j, as[bi])
		_, _, _ = l.Best(j, l.in.Top.Coverage[j])
		l.Move(j, alloc[j])
		bi = (bi + 1) % len(js)
	}); avg != 0 {
		t.Fatalf("Ledger.Best allocates %.2f allocs/op in steady state, want 0", avg)
	}
}
