package des

import (
	"fmt"
	"math"
	"sort"

	"idde/internal/model"
	"idde/internal/obs"
	"idde/internal/rng"
	"idde/internal/units"
)

// Network executes an IDDE strategy's transfers over the topology's
// wired links with FIFO contention. Each undirected link is one shared
// resource (half-duplex, as microwave backhaul typically is); each
// server additionally owns a cloud-ingress resource at the topology's
// cloud rate.
type Network struct {
	in    *model.Instance
	links map[[2]int]*Resource
	cloud []*Resource
}

// NewNetwork builds the contention model for an instance.
func NewNetwork(in *model.Instance) *Network {
	n := &Network{in: in, links: map[[2]int]*Resource{}, cloud: make([]*Resource, in.N())}
	for _, e := range in.Top.Net.Edges() {
		n.links[[2]int{e.U, e.V}] = &Resource{Rate: units.Rate(1 / float64(e.Cost))}
	}
	for i := range n.cloud {
		n.cloud[i] = &Resource{Rate: in.Top.CloudRate}
	}
	return n
}

func (n *Network) link(u, v int) *Resource {
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
	// Retries counts lost hop attempts that were re-sent (unreliable
	// mode only).
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

// SimulateStrategy runs every request of the workload as a
// store-and-forward flow along its Eq. 8 serving path. Requests arrive
// uniformly over the spread window (spread = 0 means a synchronized
// burst, the worst case for contention); arrival order is drawn from
// the stream.
func SimulateStrategy(in *model.Instance, st model.Strategy, spread units.Seconds, s *rng.Stream) *Report {
	return SimulateStrategyOpt(in, st, SimOptions{Spread: spread}, s)
}

// SimOptions bundles the simulation knobs for SimulateStrategyOpt.
type SimOptions struct {
	// Spread is the request-arrival window (0 = synchronized burst).
	Spread units.Seconds
	// Faults enables the unreliable-transfer mode (nil = reliable).
	Faults *Faults
	// Obs receives the run's telemetry: a run span, transfer-outcome
	// counters cross-wired from the Report, and a per-request latency
	// histogram. nil disables all of it; the Report is identical
	// either way (rng splits are label-derived, so attaching a scope
	// never perturbs the draws).
	Obs *obs.Scope
}

// SimulateStrategyOpt is SimulateStrategy/SimulateStrategyFaulty behind
// one options surface, with optional telemetry.
func SimulateStrategyOpt(in *model.Instance, st model.Strategy, opt SimOptions, s *rng.Stream) *Report {
	arrivals := Uniform{Window: opt.Spread}.Times(in.Wl.TotalRequests(), s.Split("arrivals"))
	var f *Faults
	var fs *rng.Stream
	if opt.Faults != nil {
		nf := opt.Faults.normalized()
		f = &nf
		fs = s.Split("faults")
	}
	return simulateObs(in, st, arrivals, s.Split("order"), f, fs, opt.Obs)
}

// SimulateStrategyFaulty is SimulateStrategy in the unreliable-transfer
// mode: wired hops are lost with f.LossProb, stalled with f.StallProb,
// retried with exponential backoff and failed over per Eq. 8 when a
// hop's retry budget is exhausted. All fault draws come from a
// dedicated split of the stream, so a given seed reproduces the exact
// same degradation bit-for-bit.
func SimulateStrategyFaulty(in *model.Instance, st model.Strategy, spread units.Seconds, f Faults, s *rng.Stream) *Report {
	return SimulateStrategyOpt(in, st, SimOptions{Spread: spread, Faults: &f}, s)
}

// simulateObs wraps simulate with the run span and the Report→metrics
// cross-wiring; both are written from the same Report fields, so the
// struct and the counters can never drift.
func simulateObs(in *model.Instance, st model.Strategy, arrivals []units.Seconds, s *rng.Stream, faults *Faults, fs *rng.Stream, sc *obs.Scope) *Report {
	sc.Begin("des", "run", nil)
	rep := simulate(in, st, arrivals, s, faults, fs)
	if sc.Enabled() {
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
	sc.End("des", "run")
	return rep
}

// simulate executes the workload's transfers with the given per-request
// arrival offsets (workload request order). A nil faults config runs
// the reliable mode.
func simulate(in *model.Instance, st model.Strategy, arrivals []units.Seconds, s *rng.Stream, faults *Faults, fs *rng.Stream) *Report {
	net := NewNetwork(in)
	sim := &Sim{}
	rep := &Report{AnalyticAvg: in.AvgLatencyMode(st.Alloc, st.Delivery, st.Mode)}

	type reqRef struct {
		j, k int
		idx  int
	}
	var reqs []reqRef
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			reqs = append(reqs, reqRef{j: j, k: k, idx: len(reqs)})
		}
	}
	if len(arrivals) != len(reqs) {
		panic(fmt.Sprintf("des: %d arrivals for %d requests", len(arrivals), len(reqs)))
	}
	rep.PerRequest = make([]units.Seconds, len(reqs))

	// Schedule in arrival order; simultaneous arrivals tie-break by a
	// seeded permutation so no request index is privileged.
	order := s.Perm(len(reqs))
	sort.SliceStable(order, func(a, b int) bool { return arrivals[order[a]] < arrivals[order[b]] })

	for _, oi := range order {
		r := reqs[oi]
		at := arrivals[oi]
		j, k, idx := r.j, r.k, r.idx
		sim.Schedule(at, func() {
			if faults != nil {
				x := &xfer{sim: sim, net: net, rep: rep, in: in, st: st,
					f: faults, s: fs, j: j, k: k, idx: idx, start: sim.Now()}
				x.launch()
				return
			}
			src, viaEdge := servingReplica(in, st, j, k)
			if !viaEdge {
				rep.CloudRequests++
				target := 0
				if a := st.Alloc[j]; a.Allocated() {
					target = a.Server
				}
				done := net.cloud[target].Acquire(sim.Now(), in.Wl.Items[k].Size)
				start := sim.Now()
				sim.Schedule(done, func() { rep.PerRequest[idx] = sim.Now() - start })
				return
			}
			if st.Mode != model.Collaborative {
				// Coverage-local and server-local delivery happen over
				// the air from the holder, without touching the wired
				// network: completion is immediate on the Eq. 8 scale.
				rep.PerRequest[idx] = 0
				return
			}
			dst := st.Alloc[j].Server
			path, _, ok := in.Top.Net.ShortestPath(src, dst)
			if !ok {
				path = []int{src}
			}
			start := sim.Now()
			forwardHop(sim, net, rep, idx, path, 0, in.Wl.Items[k].Size, start)
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
	return rep
}

// forwardHop moves the item across path[i]→path[i+1], store-and-forward.
func forwardHop(sim *Sim, n *Network, rep *Report, idx int, path []int, i int, size units.MegaBytes, start units.Seconds) {
	if i+1 >= len(path) {
		rep.PerRequest[idx] = sim.Now() - start
		return
	}
	res := n.link(path[i], path[i+1])
	if res == nil {
		// Link vanished (cannot happen for Eq. 8 paths); treat as done.
		rep.PerRequest[idx] = sim.Now() - start
		return
	}
	done := res.Acquire(sim.Now(), size)
	sim.Schedule(done, func() { forwardHop(sim, n, rep, idx, path, i+1, size, start) })
}

// xfer is one request's transfer under the unreliable mode: a state
// machine over (source, hop, attempt) that retries lost hops with
// exponential backoff and fails over to the next-best replica — then
// the cloud — when a hop exhausts its budget.
type xfer struct {
	sim   *Sim
	net   *Network
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

// servingReplica resolves Eq. 8's argmin for request (j,k) under the
// strategy's delivery mode: the edge server the item is fetched from,
// or viaEdge=false for the cloud.
func servingReplica(in *model.Instance, st model.Strategy, j, k int) (src int, viaEdge bool) {
	return in.BestSource(st.Alloc, st.Delivery, j, k, st.Mode, nil)
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
