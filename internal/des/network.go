package des

import (
	"math"
	"sort"

	"idde/internal/model"
	"idde/internal/obs"
	"idde/internal/rng"
	"idde/internal/units"
)

// network executes an IDDE strategy's transfers over the topology's
// wired links with FIFO contention. Each undirected link is one shared
// resource (half-duplex, as microwave backhaul typically is); each
// server additionally owns a cloud-ingress resource at the topology's
// cloud rate.
type network struct {
	links map[[2]int]*resource
	cloud []*resource
}

// newNetwork builds the contention model for an instance.
func newNetwork(in *model.Instance) *network {
	n := &network{links: map[[2]int]*resource{}, cloud: make([]*resource, in.N())}
	for _, e := range in.Top.Net.Edges() {
		n.links[[2]int{e.U, e.V}] = &resource{Rate: units.Rate(1 / float64(e.Cost))}
	}
	for i := range n.cloud {
		n.cloud[i] = &resource{Rate: in.Top.CloudRate}
	}
	return n
}

func (n *network) link(u, v int) *resource {
	if u > v {
		u, v = v, u
	}
	return n.links[[2]int{u, v}]
}

// Report aggregates a simulated execution.
type Report struct {
	// PerRequest holds the measured completion latency of every
	// (user, item) request, in workload order.
	PerRequest []units.Seconds
	// Avg is the measured analogue of Eq. 9.
	Avg units.Seconds
	// AnalyticAvg is Eq. 9 itself, for comparison.
	AnalyticAvg units.Seconds
	// CloudRequests counts requests served from the cloud.
	CloudRequests int
	// Events is the number of simulation events executed.
	Events int
	// Retries counts lost hop attempts that were re-sent (zero in the
	// reliable mode, as are the three fault counters below).
	Retries int
	// Failovers counts sources abandoned after a hop exhausted its
	// retry budget; the request restarted from the next-best replica
	// or the cloud.
	Failovers int
	// CloudFallbacks counts requests that began on an edge source and
	// ended up served by the cloud after exhausting every edge source.
	CloudFallbacks int
	// Stalls counts hop attempts that hit a stall.
	Stalls int
	// makespan is the completion time of the last transfer.
	makespan units.Seconds
}

// SimOptions configures one Simulate run.
type SimOptions struct {
	// Spread is the request-arrival window (0 = synchronized burst).
	Spread units.Seconds
	// Faults is the wired-hop fault model. The zero value is the
	// reliable mode: no attempt is lost or stalled, so no request
	// retries or fails over.
	Faults Faults
	// Obs receives the run's telemetry: a run span, transfer-outcome
	// counters cross-wired from the Report, and a per-request latency
	// histogram. nil disables all of it; the Report is identical
	// either way (rng splits are label-derived, so attaching a scope
	// never perturbs the draws).
	Obs *obs.Scope
}

// Simulate runs every request of the workload as a store-and-forward
// flow along its Eq. 8 serving path. Requests arrive uniformly over the
// spread window (spread = 0 means a synchronized burst, the worst case
// for contention); arrival order is drawn from the stream. Wired hops
// are lost with opt.Faults.LossProb, stalled with StallProb, retried
// with exponential backoff and failed over per Eq. 8 when a hop's retry
// budget is exhausted. Every fault draw comes from a dedicated split of
// the stream, so a given seed reproduces the exact same degradation
// bit-for-bit. The reliable mode takes that split too; splits are
// label-derived, so it moves no arrival or ordering draw.
func Simulate(in *model.Instance, st model.Strategy, opt SimOptions, s *rng.Stream) *Report {
	sc := opt.Obs
	sc.Begin("des", "run", nil)
	arrivals := uniform{Window: opt.Spread}.Times(in.Wl.TotalRequests(), s.Split("arrivals"))
	f := opt.Faults.normalized()
	fs := s.Split("faults")
	net := newNetwork(in)
	sim := &calendar{}
	rep := &Report{AnalyticAvg: in.AvgLatencyMode(st.Alloc, st.Delivery, st.Mode)}

	type reqRef struct{ j, k int }
	reqs := make([]reqRef, 0, len(arrivals))
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			reqs = append(reqs, reqRef{j: j, k: k})
		}
	}
	rep.PerRequest = make([]units.Seconds, len(reqs))

	// Schedule in arrival order; simultaneous arrivals tie-break by a
	// seeded permutation so no request index is privileged.
	order := s.Split("order").Perm(len(reqs))
	sort.SliceStable(order, func(a, b int) bool { return arrivals[order[a]] < arrivals[order[b]] })
	for _, idx := range order {
		r := reqs[idx]
		sim.Schedule(arrivals[idx], func() {
			x := &xfer{sim: sim, net: net, rep: rep, in: in, st: st,
				f: &f, s: fs, j: r.j, k: r.k, idx: idx, start: sim.Now()}
			x.launch()
		})
	}
	rep.makespan = sim.Run()
	var total float64
	for _, l := range rep.PerRequest {
		total += float64(l)
	}
	if len(rep.PerRequest) > 0 {
		rep.Avg = units.Seconds(total / float64(len(rep.PerRequest)))
	}
	rep.Events = sim.Steps()
	publish(sc, rep)
	sc.End("des", "run")
	return rep
}

// publish cross-wires the Report into the scope; both are written from
// the same Report fields, so the struct and the counters can never
// drift.
func publish(sc *obs.Scope, rep *Report) {
	if !sc.Enabled() {
		return
	}
	sc.Count("des_runs_total", 1)
	sc.Count("des_requests_total", int64(len(rep.PerRequest)))
	sc.Count("des_events_total", int64(rep.Events))
	sc.Count("des_cloud_requests_total", int64(rep.CloudRequests))
	sc.Count("des_retries_total", int64(rep.Retries))
	sc.Count("des_failovers_total", int64(rep.Failovers))
	sc.Count("des_cloud_fallbacks_total", int64(rep.CloudFallbacks))
	sc.Count("des_stalls_total", int64(rep.Stalls))
	for _, l := range rep.PerRequest {
		sc.Observe("des_request_latency_ms", l.Millis())
	}
	if sc.Tracing() {
		sc.Instant("des", "report", map[string]any{
			"requests":        len(rep.PerRequest),
			"events":          rep.Events,
			"avg_ms":          rep.Avg.Millis(),
			"analytic_ms":     rep.AnalyticAvg.Millis(),
			"makespan_ms":     rep.makespan.Millis(),
			"cloud_requests":  rep.CloudRequests,
			"retries":         rep.Retries,
			"failovers":       rep.Failovers,
			"cloud_fallbacks": rep.CloudFallbacks,
			"stalls":          rep.Stalls,
		})
	}
}

// xfer is one request's transfer: a state machine over (source, hop,
// attempt) that retries lost hops with exponential backoff and fails
// over to the next-best replica — then the cloud — when a hop exhausts
// its budget.
type xfer struct {
	sim   *calendar
	net   *network
	rep   *Report
	in    *model.Instance
	st    model.Strategy
	f     *Faults
	s     *rng.Stream
	j, k  int
	idx   int
	start units.Seconds
	// tried marks edge sources abandoned after retry exhaustion.
	tried map[int]bool
}

func (x *xfer) size() units.MegaBytes { return x.in.Wl.Items[x.k].Size }

// launch resolves the best remaining source per Eq. 8 and starts (or
// restarts, after a failover) the transfer.
func (x *xfer) launch() {
	skip := func(o int) bool { return x.tried[o] }
	src, viaEdge := x.in.BestSource(x.st.Alloc, x.st.Delivery, x.j, x.k, x.st.Mode, skip)
	if !viaEdge {
		if len(x.tried) > 0 {
			x.rep.CloudFallbacks++
		}
		x.cloud()
		return
	}
	if x.st.Mode != model.Collaborative {
		// Over-the-air delivery from a covering holder: the wired
		// fault model does not apply.
		x.rep.PerRequest[x.idx] = x.sim.Now() - x.start
		return
	}
	dst := x.st.Alloc[x.j].Server
	path, _, ok := x.in.Top.Net.ShortestPath(src, dst)
	if !ok {
		path = []int{src}
	}
	x.hop(src, path, 0, 0)
}

// cloud serves the request from the cloud ingress (reliable; brownouts
// degrade its rate, not its delivery).
func (x *xfer) cloud() {
	x.rep.CloudRequests++
	target := 0
	if a := x.st.Alloc[x.j]; a.Allocated() {
		target = a.Server
	}
	done := x.net.cloud[target].Acquire(x.sim.Now(), x.size())
	x.sim.Schedule(done, func() { x.rep.PerRequest[x.idx] = x.sim.Now() - x.start })
}

// hop attempts the transfer across path[i]→path[i+1]. The attempt
// occupies the link for the full service time; loss is detected at the
// end (as a checksum failure would be), so lost attempts still congest
// the link — exactly why loss storms inflate latency system-wide.
func (x *xfer) hop(src int, path []int, i, attempt int) {
	if i+1 >= len(path) {
		x.rep.PerRequest[x.idx] = x.sim.Now() - x.start
		return
	}
	res := x.net.link(path[i], path[i+1])
	if res == nil {
		// The link is gone under this degradation: abandon the source
		// immediately, as a router would on an unreachable next hop.
		x.abandon(src)
		return
	}
	done := res.Acquire(x.sim.Now(), x.size())
	if x.f.StallProb > 0 && x.s.Bool(x.f.StallProb) {
		x.rep.Stalls++
		done += x.f.StallTime
	}
	lost := x.s.Bool(x.f.LossProb)
	x.sim.Schedule(done, func() {
		if !lost {
			x.hop(src, path, i+1, 0)
			return
		}
		x.rep.Retries++
		if attempt < x.f.MaxRetries {
			retryAt := x.sim.Now() + x.f.retryDelay(attempt)
			x.sim.Schedule(retryAt, func() { x.hop(src, path, i, attempt+1) })
			return
		}
		x.abandon(src)
	})
}

// abandon marks the source exhausted and fails over.
func (x *xfer) abandon(src int) {
	x.rep.Failovers++
	if x.tried == nil {
		x.tried = make(map[int]bool)
	}
	x.tried[src] = true
	x.launch()
}

// MaxQueueingInflation reports max over requests of measured/analytic
// latency (1 = no queueing anywhere). Requests with zero analytic
// latency are skipped.
func (rep *Report) MaxQueueingInflation(in *model.Instance, st model.Strategy) float64 {
	worst := 1.0
	idx := 0
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			analytic := in.RequestLatencyMode(st.Alloc, st.Delivery, j, k, st.Mode)
			if analytic > 0 {
				if ratio := float64(rep.PerRequest[idx]) / float64(analytic); ratio > worst && !math.IsInf(ratio, 0) {
					worst = ratio
				}
			}
			idx++
		}
	}
	return worst
}
