package repair

import (
	"math"
	"testing"

	"idde/internal/core"
	"idde/internal/model"
	"idde/internal/placement"
	"idde/internal/rng"
)

// refOracle adapts the per-request LatencyState reference oracle to the
// greedy engine for refPhaseB.
type refOracle struct {
	in *model.Instance
	ls *model.LatencyState
	d  *model.Delivery
}

func (o *refOracle) Gain(c placement.Candidate) float64 {
	return float64(o.ls.GainOf(c.Server, c.Item))
}

func (o *refOracle) Cost(c placement.Candidate) float64 {
	return float64(o.in.Wl.Items[c.Item].Size)
}

func (o *refOracle) Feasible(c placement.Candidate) bool {
	if o.d.Placed(c.Server, c.Item) {
		return false
	}
	return o.d.Used(c.Server)+o.in.Wl.Items[c.Item].Size <= o.in.Wl.Capacity[c.Server]
}

func (o *refOracle) Commit(c placement.Candidate) float64 {
	o.d.Place(c.Server, c.Item, o.in.Wl.Items[c.Item].Size)
	return float64(o.ls.Commit(c.Server, c.Item))
}

// refPhaseB is the reference Phase B: surviving replicas replayed into a
// LatencyState in ascending (server, item) order, then sequential-seed
// LazyGreedy over surviving servers × every item not yet placed.
func refPhaseB(degraded *model.Instance, old *model.Delivery, alloc model.Allocation) (d *model.Delivery, lost, replaced int) {
	d = model.NewDelivery(degraded.N(), degraded.K())
	ls := model.NewLatencyState(degraded, alloc)
	for i := 0; i < degraded.N(); i++ {
		for k := 0; k < degraded.K(); k++ {
			if !old.Placed(i, k) {
				continue
			}
			if degraded.Top.Servers[i].Failed {
				lost++
				continue
			}
			d.Place(i, k, degraded.Wl.Items[k].Size)
			ls.Commit(i, k)
		}
	}
	var cands []placement.Candidate
	for i := 0; i < degraded.N(); i++ {
		if degraded.Top.Servers[i].Failed {
			continue
		}
		for k := 0; k < degraded.K(); k++ {
			if !d.Placed(i, k) {
				cands = append(cands, placement.Candidate{Server: i, Item: k})
			}
		}
	}
	pres := placement.LazyGreedyOpt(cands, &refOracle{in: degraded, ls: ls, d: d}, placement.Options{})
	return d, lost, len(pres.Chosen)
}

// TestRepairPhaseBMatchesReference pins RepairDegraded's Phase B to the
// reference greedy: on the allocation Phase A produced, the repaired
// delivery, the lost and re-placed replica counts and the post-repair
// objectives must be bit-equal to refPhaseB's, across single and
// correlated outages, cut links, a cloud brownout, compound faults,
// partial recovery and every server down.
func TestRepairPhaseBMatchesReference(t *testing.T) {
	const seeds = 30
	repairs, replaced, lost := 0, 0, 0
	for seed := uint64(0); seed < seeds; seed++ {
		in := genInstance(t, 12, 80, 8, 500+seed)
		st := core.Solve(in, core.DefaultOptions()).Strategy
		s := rng.New(900 + seed)
		perm := s.Perm(in.N())
		all := make([]int, in.N())
		for i := range all {
			all[i] = i
		}
		edges := in.Top.Net.Edges()
		var cuts [][2]int
		for c := 0; c < 3 && len(edges) > 0; c++ {
			e := edges[s.IntN(len(edges))]
			cuts = append(cuts, [2]int{e.U, e.V})
		}
		check := func(label string, ref, deg *model.Instance, cur model.Strategy) model.Strategy {
			t.Helper()
			got, rep, err := RepairDegraded(ref, deg, cur, Options{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, label, err)
			}
			d, wantLost, wantReplaced := refPhaseB(deg, cur.Delivery, got.Alloc)
			for i := 0; i < deg.N(); i++ {
				for k := 0; k < deg.K(); k++ {
					if got.Delivery.Placed(i, k) != d.Placed(i, k) {
						t.Fatalf("seed %d %s: replica (%d,%d) placed=%v, reference %v",
							seed, label, i, k, got.Delivery.Placed(i, k), d.Placed(i, k))
					}
				}
			}
			if rep.LostReplicas != wantLost || rep.ReplacedReplicas != wantReplaced {
				t.Fatalf("seed %d %s: lost/replaced %d/%d, reference %d/%d",
					seed, label, rep.LostReplicas, rep.ReplacedReplicas, wantLost, wantReplaced)
			}
			gotRate, gotLat := deg.Evaluate(got)
			rate, lat := deg.Evaluate(model.Strategy{Alloc: got.Alloc, Delivery: d, Mode: cur.Mode})
			if math.Float64bits(float64(gotRate)) != math.Float64bits(float64(rate)) ||
				math.Float64bits(float64(gotLat)) != math.Float64bits(float64(lat)) {
				t.Fatalf("seed %d %s: after rate/latency %v/%v, reference %v/%v",
					seed, label, gotRate, gotLat, rate, lat)
			}
			repairs++
			replaced += rep.ReplacedReplicas
			lost += rep.LostReplicas
			return got
		}
		degrade := func(d Degradation) *model.Instance {
			t.Helper()
			deg, err := Degrade(in, d)
			if err != nil {
				t.Fatalf("seed %d: degrade %+v: %v", seed, d, err)
			}
			return deg
		}

		check("busiest server", in, degrade(Degradation{FailedServers: []int{busiestServer(in, st)}}), st)
		check("random server", in, degrade(Degradation{FailedServers: perm[:1]}), st)
		three := degrade(Degradation{FailedServers: perm[:3]})
		outage := check("correlated outage", in, three, st)
		check("partial recovery", three, degrade(Degradation{FailedServers: perm[:1]}), outage)
		check("cut links", in, degrade(Degradation{CutLinks: cuts}), st)
		check("cloud brownout", in, degrade(Degradation{CloudFactor: 0.4}), st)
		check("compound", in, degrade(randDegradation(in, s.Split("compound"))), st)
		check("every server down", in, degrade(Degradation{FailedServers: all}), st)
	}
	t.Logf("%d repairs: %d replicas lost, %d re-placed", repairs, lost, replaced)
	if repairs < 200 || replaced == 0 || lost == 0 {
		t.Fatalf("%d repairs re-placed %d and lost %d replicas; want ≥200 repairs exercising both", repairs, replaced, lost)
	}
}
