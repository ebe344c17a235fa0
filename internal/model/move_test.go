package model

import (
	"math"
	"testing"

	"idde/internal/rng"
)

// freshRow builds receiver i's row from l's current occupant lists, as
// a first fault-in would, and returns it without disturbing l: the
// built row (if any) and the byte count are put back.
func freshRow(l *Ledger, i int) *aggRowData {
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	old, bytes := l.agg[i].Load(), l.rowBytes.Load()
	d := l.buildRowLocked(i)
	l.agg[i].Store(old)
	l.rowBytes.Store(bytes)
	return d
}

// requireRowsFresh asserts that every built row of l equals a fresh
// build over the same occupant lists, bit for bit.
func requireRowsFresh(t *testing.T, l *Ledger, label string) {
	t.Helper()
	for i := range l.agg {
		d := l.agg[i].Load()
		if d == nil {
			continue
		}
		f := freshRow(l, i)
		for o := range d.srcOff {
			if d.srcOff[o] != f.srcOff[o] {
				t.Fatalf("%s: row %d srcOff[%d] = %d, fresh build %d", label, i, o, d.srcOff[o], f.srcOff[o])
			}
		}
		for c := range d.vals {
			if math.Float64bits(d.vals[c]) != math.Float64bits(f.vals[c]) {
				t.Fatalf("%s: row %d cell %d = %v, fresh build %v", label, i, c, d.vals[c], f.vals[c])
			}
		}
	}
}

// offCoverage returns a server that does not cover user j, or -1.
func offCoverage(in *Instance, j int, s *rng.Stream) int {
	for tries := 0; tries < 4*in.N(); tries++ {
		i := s.IntN(in.N())
		covers := false
		for _, o := range in.Top.Coverage[j] {
			covers = covers || o == i
		}
		if !covers {
			return i
		}
	}
	return -1
}

// TestTargetedMoveRowsMatchFreshBuild is the targeted-Move differential:
// Move visits only the receivers that co-cover the mover's source or
// destination, so after any walk of moves — covering, unallocating and
// off-coverage ones — every built row must still equal a fresh build
// bit for bit, including the rows Move never visited.
func TestTargetedMoveRowsMatchFreshBuild(t *testing.T) {
	for _, seed := range []uint64{3, 11, 2022} {
		in := genInstance(t, 24, 120, 3, seed)
		s := rng.New(seed * 7)
		l := NewLedger(in, NewAllocation(in.M()))
		fillRandom(in, l, s)
		l.WarmAggregates()
		skipped := 0
		for step := 0; step < 30; step++ {
			for b := 0; b < 8; b++ {
				j := s.IntN(in.M())
				a := randomMove(in, j, s)
				if i := offCoverage(in, j, s); i >= 0 && s.Bool(0.2) {
					a = Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)}
				}
				from := l.Current(j)
				l.Move(j, a)
				if from == a {
					continue
				}
				for i := range l.agg {
					d := l.agg[i].Load()
					if d == nil {
						continue
					}
					touched := (from.Allocated() && d.srcOff[from.Server] >= 0) ||
						(a.Allocated() && d.srcOff[a.Server] >= 0)
					if !touched {
						skipped++
					}
				}
			}
			requireRowsFresh(t, l, "after moves")
		}
		if skipped == 0 {
			t.Fatalf("seed %d: every move co-covered every receiver; no skipped row was checked", seed)
		}
	}
}

// TestOffCoverageBenefitUsesInstanceGain pins the off-coverage fallback
// of the serving-gain table: a hypothetical on a server that does not
// cover the user reads g from the instance, and the benefit it yields
// agrees with the naive reference.
func TestOffCoverageBenefitUsesInstanceGain(t *testing.T) {
	in := genInstance(t, 24, 120, 3, 5)
	s := rng.New(29)
	l := NewLedger(in, NewAllocation(in.M()))
	fillRandom(in, l, s)
	ref := NewLedger(in, l.Alloc())
	ref.SetNaiveInterference(true)
	probed := 0
	for j := 0; j < in.M(); j++ {
		i := offCoverage(in, j, s)
		if i < 0 {
			continue
		}
		for x := 0; x < in.Top.Servers[i].Channels; x++ {
			a := Alloc{Server: i, Channel: x}
			if g := l.servingGain(j, a); g != in.GainAt(i, j) {
				t.Fatalf("servingGain(%d,%v) = %v, want %v", j, a, g, in.GainAt(i, j))
			}
			ba, br := l.Benefit(j, a), ref.Benefit(j, a)
			if math.Abs(ba-br) > 1e-9*math.Max(1, br) {
				t.Fatalf("off-coverage Benefit(%d,%v) = %g, naive %g", j, a, ba, br)
			}
			probed++
		}
	}
	if probed == 0 {
		t.Fatal("no off-coverage decision to probe")
	}
}

// replayLedger applies moves to a new ledger over in. While no row is
// built Move maintains none, so the rows the returned ledger later
// faults in are fresh builds over the same occupant lists, power sums
// and profile the moves produce on any other ledger.
func replayLedger(in *Instance, moves []ledgerMove) *Ledger {
	l := NewLedger(in, NewAllocation(in.M()))
	for _, mv := range moves {
		l.Move(mv.j, mv.a)
	}
	return l
}

type ledgerMove struct {
	j int
	a Alloc
}

// FuzzLedgerMoves drives a warm ledger through a fuzzed sequence of
// moves with interleaved Benefit/SINR/Rate probes, in-coverage and
// off-coverage, and checks every probe against three twins: a ledger
// replaying the same moves without built rows, whose rows are then
// built fresh (bit for bit); a lazy ledger that is never warmed, so
// probes build its rows mid-sequence and later moves maintain them
// (bit for bit); and the naive reference (the aggregate-vs-naive
// tolerance).
// Each probe also sweeps the whole decision set of the probed user, and
// of one user co-covered by the last mover, twice on the warm ledger:
// the first pass mixes memo hits carried across moves with misses, the
// second must be all hits, and both must match the fresh twin bit for
// bit.
//
// Each op is four bytes: kind (even = Move, odd = probe), user, server
// choice (255 = Unallocated, ≥128 = any server) and channel choice.
func FuzzLedgerMoves(f *testing.F) {
	in := genInstance(f, 16, 60, 2, 2022)
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 0, 2, 0, 0, 1, 2, 5, 1})
	f.Add([]byte{0, 7, 255, 0, 1, 7, 40, 2, 0, 7, 1, 1, 1, 9, 200, 0, 0, 9, 3, 2, 1, 9, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*64 {
			ops = ops[:4*64]
		}
		// Warm start: every user on its first covering server, rows
		// resident, so every fuzzed Move maintains rows.
		var moves []ledgerMove
		for j := 0; j < in.M(); j++ {
			if vs := in.Top.Coverage[j]; len(vs) > 0 {
				moves = append(moves, ledgerMove{j, Alloc{Server: vs[0], Channel: j % in.Top.Servers[vs[0]].Channels}})
			}
		}
		l := replayLedger(in, moves)
		l.WarmAggregates()
		lazy := replayLedger(in, moves)
		naive := NewLedger(in, NewAllocation(in.M()))
		naive.SetNaiveInterference(true)
		for _, mv := range moves {
			naive.Move(mv.j, mv.a)
		}

		// sweep evaluates q's whole decision set on l twice against the
		// fresh twin.
		sweep := func(fresh *Ledger, q int) {
			for pass := 0; pass < 2; pass++ {
				for _, d := range decisions(in, q) {
					if pass == 1 && !memoValid(l, q, d) {
						t.Fatalf("second sweep: Benefit(%d,%v) missed the memo", q, d)
					}
					got, want := l.Benefit(q, d), fresh.Benefit(q, d)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("sweep %d: Benefit(%d,%v) = %v, fresh ledger %v", pass, q, d, got, want)
					}
				}
			}
		}
		coCovered := -1 // a user covered by the last mover's source or destination
		for ; len(ops) >= 4; ops = ops[4:] {
			j := int(ops[1]) % in.M()
			var a Alloc
			switch vs := in.Top.Coverage[j]; {
			case ops[2] == 255:
				a = Unallocated
			case ops[2] >= 128 || len(vs) == 0:
				// Any server, usually one not covering j.
				i := int(ops[2]) % in.N()
				a = Alloc{Server: i, Channel: int(ops[3]) % in.Top.Servers[i].Channels}
			default:
				i := vs[int(ops[2])%len(vs)]
				a = Alloc{Server: i, Channel: int(ops[3]) % in.Top.Servers[i].Channels}
			}
			if ops[0]%2 == 0 {
				coCovered = -1
				for _, d := range []Alloc{l.Current(j), a} {
					if d.Allocated() && len(in.Top.Covered[d.Server]) > 0 {
						us := in.Top.Covered[d.Server]
						coCovered = us[int(ops[3])%len(us)]
					}
				}
				l.Move(j, a)
				lazy.Move(j, a)
				naive.Move(j, a)
				moves = append(moves, ledgerMove{j, a})
				continue
			}
			fresh := replayLedger(in, moves)
			for _, p := range []struct {
				name string
				eval func(*Ledger) float64
			}{
				{"Benefit", func(x *Ledger) float64 { return x.Benefit(j, a) }},
				{"SINR", func(x *Ledger) float64 { return x.SINR(j, a) }},
				{"Rate", func(x *Ledger) float64 { return float64(x.Rate(j, a)) }},
			} {
				got := p.eval(l)
				if want := p.eval(fresh); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s(%d,%v) = %v, fresh ledger %v", p.name, j, a, got, want)
				}
				if b := p.eval(lazy); math.Float64bits(got) != math.Float64bits(b) {
					t.Fatalf("%s(%d,%v) = %v, lazy ledger %v", p.name, j, a, got, b)
				}
				if r := p.eval(naive); math.Abs(got-r) > 1e-9*math.Max(1, r) {
					t.Fatalf("%s(%d,%v) = %v, naive %v", p.name, j, a, got, r)
				}
			}
			sweep(fresh, j)
			if coCovered >= 0 {
				sweep(fresh, coCovered)
			}
		}
	})
}
