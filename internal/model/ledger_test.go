package model

import (
	"math"
	"testing"

	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/units"
)

func TestLedgerSoloUserHitsRateCap(t *testing.T) {
	in := tinyInstance(t)
	l := NewLedger(in, NewAllocation(3))
	l.Move(0, Alloc{Server: 0, Channel: 0})
	// Alone on the channel: noise-limited SINR is astronomically large,
	// so the Eq. 4 cap (200 MBps) binds.
	if r := l.CurrentRate(0); r != 200 {
		t.Errorf("solo rate = %v, want cap 200", r)
	}
	if l.CurrentRate(1) != 0 {
		t.Error("unallocated user has non-zero rate")
	}
	if got := l.AvgRate(); math.Abs(float64(got)-200.0/3.0) > 1e-9 {
		t.Errorf("AvgRate = %v, want 200/3", got)
	}
}

func TestLedgerIntraChannelInterference(t *testing.T) {
	in := tinyInstance(t)
	l := NewLedger(in, NewAllocation(3))
	// u1 and u2 share channel 0 on v1.
	l.Move(1, Alloc{Server: 1, Channel: 0})
	l.Move(2, Alloc{Server: 1, Channel: 0})
	// u1: g = 100^-3 = 1e-6; SINR = g·3/(g·4 + ω) ≈ 3/4.
	sinr := l.SINR(1, Alloc{Server: 1, Channel: 0})
	if math.Abs(sinr-0.75) > 1e-6 {
		t.Errorf("u1 SINR = %v, want ≈0.75", sinr)
	}
	// Moving u2 to the other channel removes the interference.
	l.Move(2, Alloc{Server: 1, Channel: 1})
	if s := l.SINR(1, Alloc{Server: 1, Channel: 0}); s < 1e9 {
		t.Errorf("post-separation SINR = %v, should be noise-limited", s)
	}
}

func TestLedgerInterCellInterference(t *testing.T) {
	in := tinyInstance(t)
	l := NewLedger(in, NewAllocation(3))
	// u1 on v0 ch0; u2 on v1 ch0. u1 is covered by both servers, so u2
	// (on another covering server, same channel) interferes per F.
	l.Move(1, Alloc{Server: 0, Channel: 0})
	l.Move(2, Alloc{Server: 1, Channel: 0})
	withF := l.SINR(1, Alloc{Server: 0, Channel: 0})
	// F = Gain[v0][u2]·p2 = 700^-3·4.
	g01 := 1.0 / (500.0 * 500 * 500) // u1 to v0 distance 500
	f := 4.0 / (700.0 * 700 * 700)
	want := g01 * 3 / (f + float64(in.Radio.Noise))
	if math.Abs(withF-want) > 1e-6*want {
		t.Errorf("SINR with F = %v, want %v", withF, want)
	}
	// u0 is covered only by v0, so users on v1 do NOT interfere with it.
	l.Move(0, Alloc{Server: 0, Channel: 1})
	if s := l.SINR(0, Alloc{Server: 0, Channel: 1}); s < 1e9 {
		t.Errorf("u0 should see no inter-cell interference, SINR = %v", s)
	}
}

func TestLedgerMoveBookkeeping(t *testing.T) {
	in := tinyInstance(t)
	l := NewLedger(in, NewAllocation(3))
	a := Alloc{Server: 1, Channel: 0}
	l.Move(1, a)
	l.Move(2, a)
	if n := len(l.users[1][0]); n != 2 {
		t.Errorf("occupancy = %d", n)
	}
	l.Move(1, Unallocated)
	if len(l.users[1][0]) != 1 || l.Current(1).Allocated() {
		t.Error("deallocation bookkeeping wrong")
	}
	l.Move(2, a) // no-op move
	if len(l.users[1][0]) != 1 {
		t.Error("no-op move corrupted occupancy")
	}
	snap := l.Alloc()
	snap[2] = Unallocated
	if !l.Current(2).Allocated() {
		t.Error("Alloc snapshot aliases ledger state")
	}
}

func TestLedgerMatchesFromScratchEvaluation(t *testing.T) {
	in := genInstance(t, 12, 60, 4, 21)
	s := rng.New(99)
	l := NewLedger(in, NewAllocation(in.M()))
	// Random walk of moves; after each batch, compare incremental state
	// against a freshly built ledger and the from-scratch evaluators.
	for step := 0; step < 30; step++ {
		for b := 0; b < 10; b++ {
			j := s.IntN(in.M())
			vs := in.Top.Coverage[j]
			if len(vs) == 0 {
				continue
			}
			var a Alloc
			if s.Bool(0.1) {
				a = Unallocated
			} else {
				i := vs[s.IntN(len(vs))]
				a = Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
			}
			l.Move(j, a)
		}
		fresh := NewLedger(in, l.Alloc())
		for j := 0; j < in.M(); j++ {
			ri, rf := float64(l.CurrentRate(j)), float64(fresh.CurrentRate(j))
			if math.Abs(ri-rf) > 1e-9*math.Max(1, rf) {
				t.Fatalf("step %d: incremental rate %v != fresh %v for user %d", step, ri, rf, j)
			}
		}
		av, fv := float64(l.AvgRate()), float64(in.AvgRate(l.Alloc()))
		if math.Abs(av-fv) > 1e-9*math.Max(1, fv) {
			t.Fatalf("step %d: AvgRate mismatch %v vs %v", step, av, fv)
		}
	}
}

func TestBenefitImprovesWithLessCongestion(t *testing.T) {
	in := genInstance(t, 10, 80, 3, 31)
	l := NewLedger(in, NewAllocation(in.M()))
	// Pile users 1..40 onto channel 0 of their first covering server.
	for j := 1; j <= 40; j++ {
		i := in.Top.Coverage[j][0]
		l.Move(j, Alloc{Server: i, Channel: 0})
	}
	// For user 0, an empty channel on the same server must yield at
	// least the benefit of the crowded channel 0.
	i := in.Top.Coverage[0][0]
	crowded := l.Benefit(0, Alloc{Server: i, Channel: 0})
	empty := l.Benefit(0, Alloc{Server: i, Channel: 1})
	if crowded > empty {
		t.Errorf("crowded channel benefit %v > empty channel %v", crowded, empty)
	}
	if l.Benefit(0, Unallocated) != 0 {
		t.Error("unallocated benefit should be 0")
	}
}

func TestBenefitBoundedByOne(t *testing.T) {
	// β = g·p/(g·(p+others)+F) ≤ g·p/(g·p) = 1.
	in := genInstance(t, 10, 100, 3, 41)
	s := rng.New(5)
	l := NewLedger(in, NewAllocation(in.M()))
	for j := 0; j < in.M(); j++ {
		vs := in.Top.Coverage[j]
		i := vs[s.IntN(len(vs))]
		l.Move(j, Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
	}
	for j := 0; j < in.M(); j++ {
		for _, i := range in.Top.Coverage[j] {
			for x := 0; x < in.Top.Servers[i].Channels; x++ {
				if b := l.Benefit(j, Alloc{Server: i, Channel: x}); b > 1+1e-12 || b < 0 {
					t.Fatalf("benefit %v out of [0,1]", b)
				}
			}
		}
	}
}

func TestRateCapNeverExceeded(t *testing.T) {
	in := genInstance(t, 15, 120, 4, 51)
	s := rng.New(6)
	l := NewLedger(in, NewAllocation(in.M()))
	for j := 0; j < in.M(); j++ {
		vs := in.Top.Coverage[j]
		i := vs[s.IntN(len(vs))]
		l.Move(j, Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
	}
	for j := 0; j < in.M(); j++ {
		if r := l.CurrentRate(j); r > in.Top.Users[j].MaxRate {
			t.Fatalf("user %d rate %v exceeds cap %v", j, r, in.Top.Users[j].MaxRate)
		}
		if r := l.CurrentRate(j); r < 0 {
			t.Fatalf("negative rate %v", r)
		}
	}
}

func TestUserRateFromScratchHelper(t *testing.T) {
	in := tinyInstance(t)
	a := NewAllocation(3)
	a[0] = Alloc{Server: 0, Channel: 0}
	if r := in.UserRate(a, 0); r != 200 {
		t.Errorf("UserRate = %v", r)
	}
	if r := in.UserRate(a, 1); r != 0 {
		t.Errorf("unallocated UserRate = %v", r)
	}
}

func TestMoreUsersLowerAverageRate(t *testing.T) {
	// The Fig. 4(a) mechanism: with servers and channels fixed, more
	// users ⇒ more interference ⇒ lower average rate. Verified on
	// crowded allocations produced by a simple nearest-server rule.
	inSmall := genInstance(t, 10, 40, 3, 61)
	inBig := genInstance(t, 10, 240, 3, 61)
	nearest := func(in *Instance) units.Rate {
		l := NewLedger(in, NewAllocation(in.M()))
		for j := 0; j < in.M(); j++ {
			best, bestG := -1, -1.0
			for _, i := range in.Top.Coverage[j] {
				if g := in.GainAt(i, j); g > bestG {
					best, bestG = i, g
				}
			}
			l.Move(j, Alloc{Server: best, Channel: j % in.Top.Servers[best].Channels})
		}
		return l.AvgRate()
	}
	small, big := nearest(inSmall), nearest(inBig)
	if big >= small {
		t.Errorf("average rate did not fall with crowding: %v (M=40) vs %v (M=240)", small, big)
	}
	_ = radio.Default()
}
