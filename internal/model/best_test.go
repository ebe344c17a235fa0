package model

import (
	"math"
	"testing"
)

// scanBest is the Eq. 12 argmax written apart from Ledger.Best: it
// lists the current decision first, then every channel of every listed
// server in order, evaluates all of them, and keeps the first maximum.
func scanBest(l *Ledger, j int, servers []int) (Alloc, float64, float64) {
	cur := l.Current(j)
	cands := []Alloc{cur}
	for _, i := range servers {
		for x := 0; x < l.in.Top.Servers[i].Channels; x++ {
			if a := (Alloc{Server: i, Channel: x}); a != cur {
				cands = append(cands, a)
			}
		}
	}
	vals := make([]float64, len(cands))
	top := 0
	for k, a := range cands {
		vals[k] = l.Benefit(j, a)
		if vals[k] > vals[top] {
			top = k
		}
	}
	return cands[top], vals[top], vals[0]
}

// FuzzLedgerBestMatchesScan drives three ledgers through the same
// fuzzed Move sequence — one warmed up front, one never warmed (Best
// builds its rows mid-sequence) and one on the naive interference
// evaluator — and checks every Best probe against scanBest on the same
// ledger, bit for bit, over the user's full Coverage list and over a
// fuzzed subset of it (in list order, possibly empty). The warm and the
// never-warmed ledger must also agree with each other bit for bit.
// Best runs before the scan, so it meets the memo as the moves left it.
//
// Each op is four bytes: kind (even = Move, odd = probe), user, server
// choice (255 = Unallocated) and channel choice / subset mask.
func FuzzLedgerBestMatchesScan(f *testing.F) {
	in := genInstance(f, 16, 60, 2, 2022)
	f.Add([]byte{1, 3, 0, 0xff, 0, 3, 1, 1, 1, 3, 0, 0x05, 1, 8, 0, 0})
	f.Add([]byte{0, 7, 255, 0, 1, 7, 0, 0x0a, 0, 9, 2, 1, 1, 9, 0, 0xff, 0, 9, 255, 0, 1, 9, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*64 {
			ops = ops[:4*64]
		}
		warm := NewLedger(in, NewAllocation(in.M()))
		lazy := NewLedger(in, NewAllocation(in.M()))
		naive := NewLedger(in, NewAllocation(in.M()))
		naive.SetNaiveInterference(true)
		for j := 0; j < in.M(); j += 2 {
			if vs := in.Top.Coverage[j]; len(vs) > 0 {
				a := Alloc{Server: vs[0], Channel: j % in.Top.Servers[vs[0]].Channels}
				warm.Move(j, a)
				lazy.Move(j, a)
				naive.Move(j, a)
			}
		}
		warm.WarmAggregates()
		var subset []int
		for ; len(ops) >= 4; ops = ops[4:] {
			j := int(ops[1]) % in.M()
			vs := in.Top.Coverage[j]
			if ops[0]%2 == 0 {
				a := Unallocated
				if ops[2] != 255 && len(vs) > 0 {
					i := vs[int(ops[2])%len(vs)]
					a = Alloc{Server: i, Channel: int(ops[3]) % in.Top.Servers[i].Channels}
				}
				warm.Move(j, a)
				lazy.Move(j, a)
				naive.Move(j, a)
				continue
			}
			subset = subset[:0]
			for x, i := range vs {
				if ops[3]&(1<<(uint(x)&7)) != 0 {
					subset = append(subset, i)
				}
			}
			for _, servers := range [][]int{vs, subset} {
				for n, l := range []*Ledger{warm, lazy, naive} {
					best, bestB, curB := l.Best(j, servers)
					wa, wb, wc := scanBest(l, j, servers)
					if best != wa || math.Float64bits(bestB) != math.Float64bits(wb) || math.Float64bits(curB) != math.Float64bits(wc) {
						t.Fatalf("ledger %d: Best(%d,%v) = %v,%v,%v; scan %v,%v,%v", n, j, servers, best, bestB, curB, wa, wb, wc)
					}
					if n == 1 {
						if wa, wb, wc := warm.Best(j, servers); best != wa || math.Float64bits(bestB) != math.Float64bits(wb) || math.Float64bits(curB) != math.Float64bits(wc) {
							t.Fatalf("Best(%d,%v): never-warmed ledger %v,%v,%v; warm %v,%v,%v", j, servers, best, bestB, curB, wa, wb, wc)
						}
					}
				}
			}
		}
	})
}
