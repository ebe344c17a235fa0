// Package repair implements failure injection and strategy repair for
// edge storage systems: when an edge server dies, its users lose their
// wireless attachment, its replicas vanish, and the wired paths through
// it disappear. Repair patches an existing strategy instead of
// re-formulating from scratch — displaced users best-respond into the
// surviving spectrum (with a bounded re-equilibration wave, as in the
// online extension), and lost replicas are re-placed by the same
// Eq. 17 greedy rule within the surviving reservations.
//
// The paper's system model treats the edge storage system as the
// answer to the cloud's "single-point failures" (§1); this package is
// what makes that robustness claim operational.
package repair

import (
	"fmt"
	"slices"
	"sort"

	"idde/internal/graph"
	"idde/internal/model"
	"idde/internal/placement"
	"idde/internal/topology"
	"idde/internal/units"
)

// Report accounts for the work a repair did.
type Report struct {
	// LostReplicas were stored on servers that are down in the
	// degraded instance.
	LostReplicas int
	// ReplacedReplicas were re-placed during repair (not necessarily
	// the same items on the same servers).
	ReplacedReplicas int
	// Moves counts allocation changes (displaced users + ripples).
	Moves int
}

// Degradation is a set of concurrently active faults to apply on top of
// an instance: servers down, wired links cut and a cloud-ingress
// brownout. It is the instantaneous fault state a chaos campaign holds
// between two of its event boundaries.
type Degradation struct {
	// FailedServers are down: they cover nobody, store nothing and
	// forward nothing. Ids already failed in the base instance are
	// tolerated (idempotent), so cumulative fault sets can be replayed
	// from the pristine instance every epoch.
	FailedServers []int
	// CutLinks are wired links severed without their endpoints dying
	// (a backhaul fibre cut). Missing links are tolerated.
	CutLinks [][2]int
	// CloudFactor scales the cloud-ingress rate, modelling a brownout
	// of the uplink. 0 or 1 means healthy; values in (0,1) slow the
	// cloud down.
	CloudFactor float64
}

// Degrade builds the instance obtained by applying the degradation to
// the given (healthy or already-degraded) instance. Any resulting
// partition of the wired network — including the extreme of every
// server down — degrades gracefully: unreachable pairs fall back to
// the cloud per Eq. 8, and an all-failed system serves everyone from
// the cloud.
func Degrade(in *model.Instance, d Degradation) (*model.Instance, error) {
	failed := make([]bool, in.N())
	for _, f := range d.FailedServers {
		if f < 0 || f >= in.N() {
			return nil, fmt.Errorf("repair: unknown server %d", f)
		}
		failed[f] = true
	}
	for _, l := range d.CutLinks {
		if l[0] < 0 || l[0] >= in.N() || l[1] < 0 || l[1] >= in.N() || l[0] == l[1] {
			return nil, fmt.Errorf("repair: invalid link (%d,%d)", l[0], l[1])
		}
	}
	cloudRate := in.Top.CloudRate
	if d.CloudFactor > 0 && d.CloudFactor < 1 {
		cloudRate = units.Rate(float64(cloudRate) * d.CloudFactor)
	} else if d.CloudFactor < 0 || d.CloudFactor > 1 {
		return nil, fmt.Errorf("repair: cloud factor %g outside [0,1]", d.CloudFactor)
	}
	cut := make(map[[2]int]bool, len(d.CutLinks))
	for _, l := range d.CutLinks {
		u, v := l[0], l[1]
		if u > v {
			u, v = v, u
		}
		cut[[2]int{u, v}] = true
	}
	top := &topology.Topology{
		Region:         in.Top.Region,
		Servers:        append([]topology.Server(nil), in.Top.Servers...),
		Users:          append([]topology.User(nil), in.Top.Users...),
		CloudRate:      cloudRate,
		AllowPartition: true,
	}
	for f, down := range failed {
		if down {
			top.Servers[f].Failed = true
		}
	}
	top.Net = graph.New(in.N())
	for _, e := range in.Top.Net.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if failed[e.U] || failed[e.V] || cut[[2]int{u, v}] {
			continue
		}
		top.Net.AddEdge(e.U, e.V, e.Cost)
	}
	if err := top.Finalize(); err != nil {
		return nil, err
	}
	// The failed servers' reservations are gone.
	wl := *in.Wl
	wl.Capacity = append([]units.MegaBytes(nil), in.Wl.Capacity...)
	for f, down := range failed {
		if down {
			wl.Capacity[f] = 0
		}
	}
	return model.New(top, &wl, in.Radio)
}

// Options bounds the repair work.
type Options struct {
	// Waves of neighbourhood re-equilibration after displacement
	// (default 2).
	Waves int
}

// RepairDegraded patches a strategy that was valid on the reference
// instance so it is valid and effective on the degraded one, whatever
// the degradation — a single dead server, a correlated multi-server
// outage, cut links, or a partial recovery (servers up in degraded
// that were down when the strategy was last repaired).
//
// Users allocated to now-dead servers are displaced and best-respond
// into the surviving spectrum (with a bounded re-equilibration wave);
// unallocated users that now have coverage again are re-admitted the
// same way; replicas on dead servers are dropped and re-placed by the
// Eq. 17 greedy within the surviving reservations. The repair is
// deterministic and idempotent: with no new failure it makes zero
// moves and places zero replicas. It does not evaluate Eq. 5 or Eq. 9;
// a caller that reports them evaluates the returned strategy.
func RepairDegraded(ref, degraded *model.Instance, st model.Strategy, opt Options) (model.Strategy, *Report, error) {
	if opt.Waves <= 0 {
		opt.Waves = 2
	}
	if degraded.N() != ref.N() || degraded.M() != ref.M() || degraded.K() != ref.K() {
		return model.Strategy{}, nil, fmt.Errorf("repair: instance dimensions differ")
	}
	rep := &Report{}
	down := func(i int) bool { return degraded.Top.Servers[i].Failed }

	// Phase A: displace users of dead servers, re-admit users that
	// regained coverage, and re-equilibrate.
	alloc := st.Alloc.Clone()
	var wavefront []int
	for j, a := range alloc {
		if a.Allocated() && (down(a.Server) || !degraded.Top.Covers(a.Server, j)) {
			wavefront = append(wavefront, j)
			alloc[j] = model.Unallocated
		}
	}
	for j, a := range alloc {
		if !a.Allocated() && len(degraded.Top.Coverage[j]) > 0 {
			wavefront = append(wavefront, j)
		}
	}
	sort.Ints(wavefront)
	// A displaced user that is still covered was listed twice.
	wavefront = slices.Compact(wavefront)
	ledger := model.NewLedger(degraded, alloc)
	for _, j := range wavefront {
		if ledger.Respond(j) {
			rep.Moves++
		}
	}
	// Ripple waves: neighbours of the wavefront may improve.
	rep.Moves += ledger.Ripple(wavefront, opt.Waves, nil)
	newAlloc := ledger.Alloc()

	// Phase B: rebuild the delivery profile — survivors keep their
	// slots, the greedy re-places into what storage remains, with the
	// zero engine Options. survivors is non-nil
	// even when every server is down: a nil Servers list would propose
	// every server.
	delivery := model.NewDelivery(degraded.N(), degraded.K())
	survivors := []int{}
	for i := 0; i < degraded.N(); i++ {
		if !down(i) {
			survivors = append(survivors, i)
		}
		for k := 0; k < degraded.K(); k++ {
			if !st.Delivery.Placed(i, k) {
				continue
			}
			if down(i) {
				rep.LostReplicas++
				continue
			}
			delivery.Place(i, k, degraded.Wl.Items[k].Size)
		}
	}
	pres := placement.Deliver(placement.DeliverySpec{
		In: degraded, Alloc: newAlloc, Delivery: delivery, Servers: survivors,
		Engine: placement.Options{},
	})
	rep.ReplacedReplicas = len(pres.Chosen)

	repaired := model.Strategy{Alloc: newAlloc, Delivery: delivery, Mode: st.Mode}
	if err := degraded.Check(repaired); err != nil {
		return model.Strategy{}, nil, fmt.Errorf("repair: produced invalid strategy: %w", err)
	}
	return repaired, rep, nil
}
