package placement

import "idde/internal/model"

// DeliverySpec describes one run of Algorithm 1's Phase 2: the Eq. 17
// greedy over the Eq. 8 latencies of a fixed allocation.
type DeliverySpec struct {
	// In is the instance. Its request lists define the requested items;
	// items nobody requests have zero gain and are never proposed.
	In    *model.Instance
	Alloc model.Allocation
	// Delivery is the profile the greedy extends in place. Replicas
	// already placed are replayed into the oracle, in ascending (server,
	// item) order, and are never proposed again.
	Delivery *model.Delivery
	// Servers lists the candidate servers in candidate order; nil means
	// every server, ascending.
	Servers []int
	// NaiveLatency selects the per-request model.LatencyState reference
	// oracle instead of the cohort oracle. Gains, totals and committed
	// sequences are bit-identical; only evaluation cost differs.
	NaiveLatency bool
	// NaiveGreedy selects the literal re-scan engine (GreedyOpt) instead
	// of CELF (LazyGreedyOpt). The committed sequence is identical.
	NaiveGreedy bool
	// Engine is handed to the chosen engine (Obs, MaxCommits, seed
	// scan). The lazy engine always runs with ItemLocalGains: both
	// oracles' state is partitioned by item.
	Engine Options
}

// Deliver runs Phase 2 as s describes: it builds the oracle, replays
// the replicas already in s.Delivery, proposes s.Servers × requested
// items minus the placed pairs, server-major, and runs the greedy,
// committing into s.Delivery.
func Deliver(s DeliverySpec) Result {
	in, d := s.In, s.Delivery
	var ls model.DeliveryOracle
	if s.NaiveLatency {
		ref := model.NewLatencyState(in, s.Alloc)
		model.Replay(ref, d)
		ls = ref
	} else {
		ls = model.NewCohortLatencyState(in, s.Alloc, d)
	}
	requested := make([]bool, in.K())
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			requested[k] = true
		}
	}
	servers := len(s.Servers)
	if s.Servers == nil {
		servers = in.N()
	}
	cands := make([]Candidate, 0, servers*in.K())
	for x := 0; x < servers; x++ {
		i := x
		if s.Servers != nil {
			i = s.Servers[x]
		}
		for k := 0; k < in.K(); k++ {
			if requested[k] && !d.Placed(i, k) {
				cands = append(cands, Candidate{Server: i, Item: k})
			}
		}
	}
	if sc := s.Engine.Obs; sc.Tracing() {
		sc.Instant("placement", "deliver", map[string]any{"candidates": len(cands)})
	}
	o := &deliveryOracle{in: in, ls: ls, d: d}
	if s.NaiveGreedy {
		return GreedyOpt(cands, o, s.Engine)
	}
	eng := s.Engine
	eng.ItemLocalGains = true
	return LazyGreedyOpt(cands, o, eng)
}

// deliveryOracle adapts a latency oracle and the delivery profile under
// construction to the greedy engines.
type deliveryOracle struct {
	in *model.Instance
	ls model.DeliveryOracle
	d  *model.Delivery
}

func (o *deliveryOracle) Gain(c Candidate) float64 {
	return float64(o.ls.GainOf(c.Server, c.Item))
}

func (o *deliveryOracle) Cost(c Candidate) float64 {
	return float64(o.in.Wl.Items[c.Item].Size)
}

func (o *deliveryOracle) Feasible(c Candidate) bool {
	if o.d.Placed(c.Server, c.Item) {
		return false
	}
	size := o.in.Wl.Items[c.Item].Size
	return o.d.Used(c.Server)+size <= o.in.Wl.Capacity[c.Server]
}

func (o *deliveryOracle) Commit(c Candidate) float64 {
	o.d.Place(c.Server, c.Item, o.in.Wl.Items[c.Item].Size)
	return float64(o.ls.Commit(c.Server, c.Item))
}
