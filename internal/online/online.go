// Package online maintains a live IDDE strategy under user churn —
// the operational reality behind the paper's static formulation (and a
// sibling of the authors' own OL-MEDC online-caching line of work).
// Users join and leave the area at run time; re-running IDDE-G from
// scratch on every arrival would cost O(N·M·K) per event, so the System
// applies *incremental* updates:
//
//   - Join: the newcomer best-responds once (Eq. 12), then a bounded
//     re-equilibration wave lets only the users it can actually have
//     disturbed (co-coverage neighbours) adjust.
//   - Leave: the seat frees instantly; neighbours may re-optimize into
//     the vacated channel on the next wave.
//   - Delivery: replicas are patched on demand — when the joining
//     user's items justify a placement under the same
//     gain-per-MB rule as Phase 2 (Eq. 17), storage permitting.
//     Replicas are never evicted (reservations are prepaid; stale
//     replicas cost nothing under Eq. 6).
//
// The value proposition is measured, not assumed: Stats tracks moves
// per event, and the tests compare the steady-state objectives against
// a from-scratch IDDE-G run on the same active set.
package online

import (
	"fmt"

	"idde/internal/model"
	"idde/internal/units"
)

// The incremental work per event is bounded by two constants.
const (
	// waves is the number of neighbourhood re-equilibration sweeps
	// after a join/leave.
	waves = 2
	// placeThreshold is the minimum latency-gain-per-MB (s/MB) for an
	// on-demand replica placement, as a fraction of the cloud per-MB
	// cost: a replica must recover at least a quarter of a cloud fetch
	// per stored MB.
	placeThreshold = 0.25
)

// Stats accumulates incremental-work accounting.
type Stats struct {
	Joins, Leaves int
	// Moves counts allocation changes committed across all events
	// (including the joiners' own first allocations).
	Moves int
	// Placements counts on-demand replicas.
	Placements int
}

// System is a live strategy over a fixed universe of potential users.
type System struct {
	in     *model.Instance
	active []bool
	ledger *model.Ledger
	deliv  *model.Delivery
	stats  Stats
}

// NewSystem starts with no active users and an empty delivery profile.
func NewSystem(in *model.Instance) *System {
	return &System{
		in:     in,
		active: make([]bool, in.M()),
		ledger: model.NewLedger(in, model.NewAllocation(in.M())),
		deliv:  model.NewDelivery(in.N(), in.K()),
	}
}

// ActiveCount reports the number of present users.
func (s *System) ActiveCount() int {
	n := 0
	for _, a := range s.active {
		if a {
			n++
		}
	}
	return n
}

// Stats returns the accumulated event accounting.
func (s *System) Stats() Stats { return s.stats }

// Join activates user j, allocates it and re-equilibrates its
// neighbourhood. It returns the number of allocation moves committed.
func (s *System) Join(j int) (int, error) {
	if j < 0 || j >= s.in.M() {
		return 0, fmt.Errorf("online: unknown user %d", j)
	}
	if s.active[j] {
		return 0, fmt.Errorf("online: user %d already active", j)
	}
	s.active[j] = true
	s.stats.Joins++
	moves := 0
	if s.ledger.Respond(j) {
		moves++
	}
	moves += s.requilibrate(j)
	s.stats.Moves += moves
	s.patchDelivery(j)
	return moves, nil
}

// Leave deactivates user j and lets its neighbourhood re-optimize into
// the vacated spectrum.
func (s *System) Leave(j int) (int, error) {
	if j < 0 || j >= s.in.M() {
		return 0, fmt.Errorf("online: unknown user %d", j)
	}
	if !s.active[j] {
		return 0, fmt.Errorf("online: user %d not active", j)
	}
	s.active[j] = false
	s.stats.Leaves++
	s.ledger.Move(j, model.Unallocated)
	moves := s.requilibrate(j)
	s.stats.Moves += moves
	return moves, nil
}

// requilibrate runs bounded best-response waves over the active users
// that share coverage with j (the only users whose payoffs j's decision
// can influence).
func (s *System) requilibrate(j int) int {
	return s.ledger.Ripple([]int{j}, waves, func(t int) bool { return t == j || !s.active[t] })
}

// patchDelivery places replicas for the joining user's items when the
// Eq. 17 ratio over the *active* demand clears the threshold.
func (s *System) patchDelivery(j int) {
	a := s.ledger.Current(j)
	if !a.Allocated() {
		return
	}
	threshold := placeThreshold * float64(s.in.Top.CloudCost)
	for _, k := range s.in.Wl.Requests[j] {
		size := s.in.Wl.Items[k].Size
		i := a.Server
		if s.deliv.Placed(i, k) {
			continue
		}
		if s.deliv.Used(i)+size > s.in.Wl.Capacity[i] {
			continue
		}
		gain := s.replicaGain(i, k)
		if gain/float64(size) >= threshold {
			s.deliv.Place(i, k, size)
			s.stats.Placements++
		}
	}
}

// replicaGain computes the total latency reduction of σ_{i,k}=1 over
// the active demand.
func (s *System) replicaGain(i, k int) float64 {
	alloc := s.ledger.Alloc()
	gain := 0.0
	for j, items := range s.in.Wl.Requests {
		if !s.active[j] {
			continue
		}
		for _, kk := range items {
			if kk != k {
				continue
			}
			cur := s.in.RequestLatency(alloc, s.deliv, j, k)
			a := alloc[j]
			if !a.Allocated() {
				continue
			}
			if nl := s.in.EdgeLatency(k, i, a.Server); nl < cur {
				gain += float64(cur - nl)
			}
		}
	}
	return gain
}

// Metrics evaluates the two IDDE objectives over the *active*
// population: the mean rate over active users and the mean latency over
// active requests.
func (s *System) Metrics() (units.Rate, units.Seconds) {
	alloc := s.ledger.Alloc()
	n := 0
	var rateSum float64
	for j := range s.active {
		if !s.active[j] {
			continue
		}
		n++
		rateSum += float64(s.ledger.CurrentRate(j))
	}
	var latSum float64
	reqs := 0
	for j, items := range s.in.Wl.Requests {
		if !s.active[j] {
			continue
		}
		for _, k := range items {
			latSum += float64(s.in.RequestLatency(alloc, s.deliv, j, k))
			reqs++
		}
	}
	var rate units.Rate
	var lat units.Seconds
	if n > 0 {
		rate = units.Rate(rateSum / float64(n))
	}
	if reqs > 0 {
		lat = units.Seconds(latSum / float64(reqs))
	}
	return rate, lat
}
