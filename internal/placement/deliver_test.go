package placement

import (
	"math"
	"testing"

	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/workload"
)

// TestDeliverEmptyServersProposesNothing pins the nil-vs-empty rule of
// DeliverySpec.Servers: nil proposes every server, an empty non-nil list
// proposes none — the case of a repair with every server down.
func TestDeliverEmptyServersProposesNothing(t *testing.T) {
	s := rng.New(7)
	top, err := topology.Generate(topology.DefaultGen(8, 40, 1.0), s.Split("top"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(workload.DefaultGen(4), 8, 40, s.Split("wl"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	alloc := model.NewAllocation(in.M())
	for j := range alloc {
		if vs := in.Top.Coverage[j]; len(vs) > 0 {
			alloc[j] = model.Alloc{Server: vs[0], Channel: j % in.Top.Servers[vs[0]].Channels}
		}
	}
	run := func(servers []int) Result {
		return Deliver(DeliverySpec{In: in, Alloc: alloc, Delivery: model.NewDelivery(in.N(), in.K()), Servers: servers})
	}
	if res := run([]int{}); res.Evaluations != 0 || len(res.Chosen) != 0 {
		t.Fatalf("Servers: []int{} ran %d evaluations and chose %d replicas, want 0 and 0", res.Evaluations, len(res.Chosen))
	}
	if res := run(nil); res.Evaluations == 0 || len(res.Chosen) == 0 {
		t.Fatalf("Servers: nil ran %d evaluations and chose %d replicas, want every server proposed", res.Evaluations, len(res.Chosen))
	}
}

// FuzzDeliverMatchesNaive checks Deliver's production configuration
// (CELF over the cohort oracle) against the literal reference (the
// re-scan greedy over the per-request LatencyState), and the two mixed
// configurations with it, on fuzzed small instances, random allocations
// and pre-placed profiles. The Servers list is fuzzed too: nil, the
// empty non-nil list, a repair-style ascending survivor list whose
// excluded servers hold no replicas, and an arbitrary order. Every
// configuration must commit the same Chosen sequence, with a bit-equal
// TotalGain, into the same final profile.
func FuzzDeliverMatchesNaive(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0})
	f.Add(uint64(2022), uint8(9), []byte{1})
	f.Add(uint64(7331), uint8(40), []byte{2, 0xb5, 0x3c})
	f.Add(uint64(99), uint8(3), []byte{3, 7, 2, 9, 2, 0, 5})
	f.Fuzz(func(t *testing.T, seed uint64, placed uint8, servers []byte) {
		s := rng.New(seed)
		n, m, k := 2+s.IntN(9), 5+s.IntN(60), 1+s.IntN(5)
		top, err := topology.Generate(topology.DefaultGen(n, m, 1.0), s.Split("top"))
		if err != nil {
			t.Skip()
		}
		wl, err := workload.Generate(workload.DefaultGen(k), n, m, s.Split("wl"))
		if err != nil {
			t.Skip()
		}
		in, err := model.New(top, wl, radio.Default())
		if err != nil {
			t.Fatal(err)
		}
		as := s.Split("alloc")
		alloc := model.NewAllocation(m)
		for j, vs := range in.Top.Coverage {
			if len(vs) > 0 && !as.Bool(0.15) {
				i := vs[as.IntN(len(vs))]
				alloc[j] = model.Alloc{Server: i, Channel: as.IntN(in.Top.Servers[i].Channels)}
			}
		}

		var list []int
		holds := func(int) bool { return true }
		if len(servers) > 0 {
			switch mode, rest := servers[0]%4, servers[1:]; mode {
			case 1:
				list = []int{}
			case 2:
				up := make([]bool, n)
				list = []int{}
				for i := 0; i < n; i++ {
					if x := 2 * i; x/8 < len(rest) && rest[x/8]>>(x%8)&3 != 0 {
						up[i] = true
						list = append(list, i)
					}
				}
				holds = func(i int) bool { return up[i] }
			case 3:
				seen := make([]bool, n)
				list = []int{}
				for _, b := range rest {
					if i := int(b) % n; !seen[i] {
						seen[i] = true
						list = append(list, i)
					}
				}
			}
		}

		pre := model.NewDelivery(n, k)
		ps := s.Split("placed")
		for x := 0; x < int(placed)%(n*k+1); x++ {
			i, kk := ps.IntN(n), ps.IntN(k)
			size := wl.Items[kk].Size
			if holds(i) && !pre.Placed(i, kk) && pre.Used(i)+size <= wl.Capacity[i] {
				pre.Place(i, kk, size)
			}
		}

		run := func(naiveGreedy, naiveLatency bool) (Result, *model.Delivery) {
			d := pre.Clone()
			res := Deliver(DeliverySpec{
				In: in, Alloc: alloc, Delivery: d, Servers: list,
				NaiveGreedy: naiveGreedy, NaiveLatency: naiveLatency,
			})
			return res, d
		}
		want, wantD := run(true, true)
		for _, c := range []struct {
			name                      string
			naiveGreedy, naiveLatency bool
		}{
			{"CELF+cohort", false, false},
			{"CELF+LatencyState", false, true},
			{"re-scan+cohort", true, false},
		} {
			got, gotD := run(c.naiveGreedy, c.naiveLatency)
			if len(got.Chosen) != len(want.Chosen) {
				t.Fatalf("%s chose %d replicas %v, reference %d %v", c.name, len(got.Chosen), got.Chosen, len(want.Chosen), want.Chosen)
			}
			for x := range want.Chosen {
				if got.Chosen[x] != want.Chosen[x] {
					t.Fatalf("%s commit %d = %v, reference %v", c.name, x, got.Chosen[x], want.Chosen[x])
				}
			}
			if math.Float64bits(got.TotalGain) != math.Float64bits(want.TotalGain) {
				t.Fatalf("%s TotalGain %v, reference %v", c.name, got.TotalGain, want.TotalGain)
			}
			for i := 0; i < n; i++ {
				for kk := 0; kk < k; kk++ {
					if gotD.Placed(i, kk) != wantD.Placed(i, kk) {
						t.Fatalf("%s replica (%d,%d) placed=%v, reference %v", c.name, i, kk, gotD.Placed(i, kk), wantD.Placed(i, kk))
					}
				}
			}
		}
	})
}
