package model

import (
	"math"
	"testing"

	"idde/internal/rng"
	"idde/internal/units"
)

// relClose compares two latency sums up to summation-order rounding.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// TestCohortMatchesNaiveOracle is the oracle differential test: on
// seeded random instances with partially unallocated users, the cohort
// state must agree with the per-request LatencyState walk — on every
// GainOf, on every realized Commit gain, and on the running totals —
// across a random interleaved commit schedule. Agreement is exact (==):
// the reference walk shares the cohort fold order by design, and
// anything weaker lets mathematically tied candidates resolve
// differently between the optimized and reference greedy paths.
func TestCohortMatchesNaiveOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7, 2022} {
		in := genInstance(t, 12, 90, 4, seed)
		s := rng.New(seed * 101)
		alloc := randomValidAllocation(in, s)
		co := NewCohortLatencyState(in, alloc, nil)
		ref := NewLatencyState(in, alloc)

		if co.Requests() != ref.Requests() {
			t.Fatalf("seed %d: request counts diverge: %d vs %d", seed, co.Requests(), ref.Requests())
		}
		committed := NewDelivery(in.N(), in.K())
		for step := 0; step < 30; step++ {
			// Sweep every candidate's marginal gain.
			for i := 0; i < in.N(); i++ {
				for k := 0; k < in.K(); k++ {
					if gc, gr := co.GainOf(i, k), ref.GainOf(i, k); gc != gr {
						t.Fatalf("seed %d step %d: GainOf(%d,%d) cohort %v != naive %v",
							seed, step, i, k, gc, gr)
					}
				}
			}
			if co.Total() != ref.Total() {
				t.Fatalf("seed %d step %d: totals diverge: %v vs %v", seed, step, co.Total(), ref.Total())
			}
			if co.Avg() != ref.Avg() {
				t.Fatalf("seed %d step %d: averages diverge: %v vs %v", seed, step, co.Avg(), ref.Avg())
			}
			// Commit a random not-yet-placed replica on both states.
			i, k := s.IntN(in.N()), s.IntN(in.K())
			if committed.Placed(i, k) {
				continue
			}
			committed.Place(i, k, in.Wl.Items[k].Size)
			if cc, cr := co.Commit(i, k), ref.Commit(i, k); cc != cr {
				t.Fatalf("seed %d step %d: Commit(%d,%d) gain cohort %v != naive %v",
					seed, step, i, k, cc, cr)
			}
		}
	}
}

// TestCohortUnallocatedUsersOnly pins the degenerate corner: with no
// user allocated, no edge replica can serve anyone (Eq. 8's edge option
// is +Inf), so every gain is exactly zero and the total stays at the
// all-cloud latency.
func TestCohortUnallocatedUsersOnly(t *testing.T) {
	in := genInstance(t, 8, 40, 3, 9)
	co := NewCohortLatencyState(in, NewAllocation(in.M()), nil)
	var cloud float64
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			cloud += float64(in.CloudLatency(k))
		}
	}
	if !relClose(float64(co.Total()), cloud) {
		t.Fatalf("all-cloud total %v != %g", co.Total(), cloud)
	}
	for i := 0; i < in.N(); i++ {
		for k := 0; k < in.K(); k++ {
			if g := co.GainOf(i, k); g != 0 {
				t.Fatalf("unallocated users yielded gain %v for (%d,%d)", g, i, k)
			}
			if g := co.Commit(i, k); g != 0 {
				t.Fatalf("unallocated users yielded commit gain %v for (%d,%d)", g, i, k)
			}
		}
	}
	if !relClose(float64(co.Total()), cloud) {
		t.Fatalf("total drifted to %v after zero-gain commits", co.Total())
	}
}

// TestCohortTinyInstanceExact replays the hand-checkable tiny instance:
// with one request per (item, server) cohort there is no summation-order
// freedom, so cohort and naive gains must be bit-identical.
func TestCohortTinyInstanceExact(t *testing.T) {
	in := tinyInstance(t)
	alloc := Allocation{
		{Server: 0, Channel: 0},
		{Server: 1, Channel: 0},
		{Server: 1, Channel: 1},
	}
	co := NewCohortLatencyState(in, alloc, nil)
	ref := NewLatencyState(in, alloc)
	for i := 0; i < in.N(); i++ {
		for k := 0; k < in.K(); k++ {
			if gc, gr := co.GainOf(i, k), ref.GainOf(i, k); gc != gr {
				t.Fatalf("GainOf(%d,%d): cohort %v != naive %v", i, k, gc, gr)
			}
		}
	}
	if gc, gr := co.Commit(0, 0), ref.Commit(0, 0); gc != gr {
		t.Fatalf("commit gains diverge: %v vs %v", gc, gr)
	}
	// After the commit the improved cohorts sit exactly at the replica's
	// edge latency; a re-commit of the same replica must gain zero.
	if g := co.Commit(1, 1); g != ref.Commit(1, 1) {
		t.Fatal("second commit gains diverge")
	}
	if co.Total() != ref.Total() {
		t.Fatalf("totals diverge: %v vs %v", co.Total(), ref.Total())
	}
}

// FuzzCohortMatchesLatencyState drives the cohort oracle and the
// per-request LatencyState reference through the same history and
// requires bitwise agreement (math.Float64bits) on every GainOf probe,
// every realized Commit gain and every Total. The fuzzed seed picks the
// instance size, a partial allocation and a pre-placed profile of up to
// `placed` replicas, which the cohort constructor replays (the reference
// replays it by hand in the same ascending order); ops is a sequence of
// (op, server, item) triples, a Commit when op%4 == 0, else a probe.
func FuzzCohortMatchesLatencyState(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{1, 0, 0, 0, 0, 0, 2, 1, 1})
	f.Add(uint64(2022), uint8(12), []byte{0, 3, 1, 5, 3, 1, 0, 7, 2, 4, 7, 2, 9, 0, 0})
	f.Add(uint64(7331), uint8(200), []byte{4, 9, 3, 8, 1, 2, 0, 2, 2, 1, 2, 2})
	f.Fuzz(func(t *testing.T, seed uint64, placed uint8, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		s := rng.New(seed)
		in := genInstance(t, 3+s.IntN(8), 10+s.IntN(60), 1+s.IntN(5), seed)
		n, k := in.N(), in.K()
		alloc := randomValidAllocation(in, s.Split("alloc"))
		d := NewDelivery(n, k)
		for x := 0; x < int(placed)%(n*k+1); x++ {
			if i, kk := s.IntN(n), s.IntN(k); !d.Placed(i, kk) {
				d.Place(i, kk, in.Wl.Items[kk].Size)
			}
		}
		co := NewCohortLatencyState(in, alloc, d)
		ref := NewLatencyState(in, alloc)
		for i := 0; i < n; i++ {
			for kk := 0; kk < k; kk++ {
				if d.Placed(i, kk) {
					ref.Commit(i, kk)
				}
			}
		}
		same := func(a, b units.Seconds) bool {
			return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
		}
		if co.Requests() != ref.Requests() || !same(co.Total(), ref.Total()) {
			t.Fatalf("after replaying %d replicas: requests %d/%d, total %v vs %v",
				d.Count(), co.Requests(), ref.Requests(), co.Total(), ref.Total())
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			i, kk := int(ops[1])%n, int(ops[2])%k
			if ops[0]%4 != 0 {
				if gc, gr := co.GainOf(i, kk), ref.GainOf(i, kk); !same(gc, gr) {
					t.Fatalf("GainOf(%d,%d): cohort %v, reference %v", i, kk, gc, gr)
				}
				continue
			}
			if gc, gr := co.Commit(i, kk), ref.Commit(i, kk); !same(gc, gr) {
				t.Fatalf("Commit(%d,%d): cohort gain %v, reference %v", i, kk, gc, gr)
			}
			if !same(co.Total(), ref.Total()) {
				t.Fatalf("after Commit(%d,%d): total %v vs %v", i, kk, co.Total(), ref.Total())
			}
		}
		for i := 0; i < n; i++ {
			for kk := 0; kk < k; kk++ {
				if gc, gr := co.GainOf(i, kk), ref.GainOf(i, kk); !same(gc, gr) {
					t.Fatalf("final sweep GainOf(%d,%d): cohort %v, reference %v", i, kk, gc, gr)
				}
			}
		}
	})
}
