package serve

import (
	"sync/atomic"

	"idde/internal/model"
	"idde/internal/units"
)

// Plan is one immutable generation of the routing table: the (α, σ)
// strategy and the instance it is valid on (the degraded view the
// re-planner last repaired onto, or the healthy instance at boot).
// Requests route against a Plan snapshot; the re-planner publishes a new
// generation with an atomic pointer swap, so the data plane never sees a
// half-updated table.
type Plan struct {
	// Epoch counts plan generations, starting at 0 for the boot plan.
	Epoch int
	// In is the instance the strategy was validated against.
	In *model.Instance
	// Strategy is the (α, σ) pair requests route by.
	Strategy model.Strategy

	// nearest is the plan's nearest-replica table for Collaborative
	// delivery, indexed server*K + item: Eq. 8's source for an item
	// requested through that attachment server, stored as src+2 (1 = the
	// cloud, 0 = not resolved yet). Entries fill on first use; racing
	// fills store the same value. nil for plans built outside newPlan
	// and for the other delivery modes, which route by scan.
	nearest []atomic.Int32
}

// newPlan builds a plan generation with an empty nearest-replica table.
func newPlan(epoch int, in *model.Instance, st model.Strategy) *Plan {
	p := &Plan{Epoch: epoch, In: in, Strategy: st}
	if st.Mode == model.Collaborative {
		p.nearest = make([]atomic.Int32, in.N()*in.K())
	}
	return p
}

// tabulated reports whether request (j, ·) routes through the table.
func (p *Plan) tabulated(j int) bool {
	return p.nearest != nil && p.Strategy.Alloc[j].Allocated()
}

// nearestFor returns Eq. 8's Collaborative source for request (j,k) of
// a tabulated user, scanning In.BestSource once per (server, item).
//
// The scan returns the lowest-index minimiser of EdgeLatency(k, o,
// server) over the holders o, provided it is no worse than the cloud
// (an edge source wins the tie). It depends on j only through j's
// attachment server, which is why one entry serves every user there.
func (p *Plan) nearestFor(j, k int) (src int, viaEdge bool) {
	st := p.Strategy
	e := &p.nearest[st.Alloc[j].Server*p.In.K()+k]
	v := e.Load()
	if v == 0 {
		src, viaEdge := p.In.BestSource(st.Alloc, st.Delivery, j, k, st.Mode, nil)
		v = 1
		if viaEdge {
			v = int32(src) + 2
		}
		e.Store(v)
	}
	return int(v) - 2, v > 1
}

// intent returns the plan's Eq. 8 choice for request (j,k) and the
// latency the plan expects of it: bit for bit In.BestSource with no
// exclusions and In.RequestLatencyMode. The tabulated source attains the
// minimum RequestLatencyMode takes, so its EdgeLatency is that minimum
// (or the cloud's latency when no edge source qualifies).
func (p *Plan) intent(j, k int) (src int, viaEdge bool, lat units.Seconds) {
	st := p.Strategy
	if !p.tabulated(j) {
		src, viaEdge = p.In.BestSource(st.Alloc, st.Delivery, j, k, st.Mode, nil)
		return src, viaEdge, p.In.RequestLatencyMode(st.Alloc, st.Delivery, j, k, st.Mode)
	}
	if src, viaEdge = p.nearestFor(j, k); !viaEdge {
		return -1, false, p.In.CloudLatency(k)
	}
	return src, true, p.In.EdgeLatency(k, src, st.Alloc[j].Server)
}

// source is In.BestSource for request (j,k) with the candidates skip
// excludes. The tabulated minimiser over all holders is also the scan's
// answer over any subset that still contains it, and when the cloud
// beats every holder it beats every subset too; so the scan is needed
// only when skip excludes the tabulated source.
func (p *Plan) source(j, k int, skip func(server int) bool) (src int, viaEdge bool) {
	st := p.Strategy
	if p.tabulated(j) {
		if src, viaEdge = p.nearestFor(j, k); !viaEdge || !skip(src) {
			return src, viaEdge
		}
	}
	return p.In.BestSource(st.Alloc, st.Delivery, j, k, st.Mode, skip)
}

// planHolder is the atomically swappable current plan.
type planHolder struct {
	p atomic.Pointer[Plan]
}

func (h *planHolder) load() *Plan      { return h.p.Load() }
func (h *planHolder) store(plan *Plan) { h.p.Store(plan) }
