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
	// delivery, indexed item*N + attachment server: Eq. 8's source for
	// an item requested through that server and the latency it delivers
	// at (model.NearestSources). nil for plans built outside newPlan and
	// for the other delivery modes, which route by scan.
	nearest []model.Nearest
}

// newPlan builds a plan generation. A Collaborative plan fills its
// nearest-replica table here, one pass per item, and is immutable
// afterwards.
func newPlan(epoch int, in *model.Instance, st model.Strategy) *Plan {
	p := &Plan{Epoch: epoch, In: in, Strategy: st}
	if st.Mode == model.Collaborative {
		n := in.N()
		p.nearest = make([]model.Nearest, n*in.K())
		for k := 0; k < in.K(); k++ {
			in.NearestSources(st.Delivery, k, p.nearest[k*n:(k+1)*n])
		}
	}
	return p
}

// tabulated reports whether request (j, ·) routes through the table.
func (p *Plan) tabulated(j int) bool {
	return p.nearest != nil && p.Strategy.Alloc[j].Allocated()
}

// nearestFor returns the table entry for request (j,k) of a tabulated
// user. Eq. 8's choice depends on j only through j's attachment server,
// which is why one entry serves every user there.
func (p *Plan) nearestFor(j, k int) model.Nearest {
	return p.nearest[k*p.In.N()+p.Strategy.Alloc[j].Server]
}

// intent returns the plan's Eq. 8 choice for request (j,k) and the
// latency the plan expects of it: bit for bit In.BestSource with no
// exclusions and In.RequestLatencyMode.
func (p *Plan) intent(j, k int) (src int, viaEdge bool, lat units.Seconds) {
	if !p.tabulated(j) {
		st := p.Strategy
		src, viaEdge = p.In.BestSource(st.Alloc, st.Delivery, j, k, st.Mode, nil)
		return src, viaEdge, p.In.RequestLatencyMode(st.Alloc, st.Delivery, j, k, st.Mode)
	}
	e := p.nearestFor(j, k)
	return int(e.Src), e.Src >= 0, e.Lat
}

// source is In.BestSource for request (j,k) with the candidates skip
// excludes. The tabulated minimiser over all holders is also the scan's
// answer over any subset that still contains it, and when the cloud
// beats every holder it beats every subset too; so the scan is needed
// only when skip excludes the tabulated source.
func (p *Plan) source(j, k int, skip func(server int) bool) (src int, viaEdge bool) {
	st := p.Strategy
	if p.tabulated(j) {
		if e := p.nearestFor(j, k); e.Src < 0 || !skip(int(e.Src)) {
			return int(e.Src), e.Src >= 0
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
