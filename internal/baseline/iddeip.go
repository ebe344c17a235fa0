package baseline

import (
	"idde/internal/model"
	"idde/internal/rng"
	"idde/internal/solver"
)

// IDDEIP is the paper's exact-model baseline: the full IDDE formulation
// of §2.3 handed to a capped solver. The paper uses the IBM CPLEX CP
// Optimizer with a 100-second search cap; this implementation hands the
// same joint (α, σ) decision space and objectives to the anytime search
// of internal/solver, capped at a count of candidate evaluations so its
// strategies depend on the seed alone (see DESIGN.md §4 for the
// substitution). The two objectives are scalarized with
// Objective #1 dominant, as the paper's ordering implies (IDDE-IP
// tracks IDDE-G on data rate but trails badly on latency):
//
//	score = R_avg / R̄_max − w·L_avg / L̄_cloud,  w = 0.25
//
// (both terms normalized to ≈[0,1]), mirroring a weighted CP model. The characteristic behaviour — far
// more computation for no better, often worse, strategies — is what the
// evaluation exercises.
type IDDEIP struct {
	// MaxIters is the number of candidate strategies the search
	// evaluates per instance.
	MaxIters int
}

// NewIDDEIP returns the baseline at 6,000 evaluations per instance:
// about what a 500 ms wall-clock cap bought at Table 2's points on a
// 2-vCPU Xeon (the paper's 100 s CPLEX cap, scaled down so the full
// figure sweep stays laptop-friendly).
func NewIDDEIP() *IDDEIP {
	return &IDDEIP{MaxIters: 6000}
}

// Name implements Approach.
func (a *IDDEIP) Name() string { return "IDDE-IP" }

// Solve implements Approach.
func (a *IDDEIP) Solve(in *model.Instance, seed uint64) model.Strategy {
	p := &ipProblem{in: in, cloudAvg: avgCloudLatency(in), rateCap: avgRateCap(in)}
	res := solver.Maximize[*ipState](p, solver.Options{MaxIters: a.MaxIters, Seed: seed})
	st := res.Best
	return model.Strategy{Alloc: st.alloc, Delivery: st.delivery}
}

func avgCloudLatency(in *model.Instance) float64 {
	total := 0.0
	n := 0
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			total += float64(in.CloudLatency(k))
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return total / float64(n)
}

func avgRateCap(in *model.Instance) float64 {
	if in.M() == 0 {
		return 1
	}
	total := 0.0
	for _, u := range in.Top.Users {
		total += float64(u.MaxRate)
	}
	return total / float64(in.M())
}

// ipState is the joint decision vector the CP model searches over.
type ipState struct {
	alloc    model.Allocation
	delivery *model.Delivery
}

type ipProblem struct {
	in       *model.Instance
	cloudAvg float64
	rateCap  float64
}

func (p *ipProblem) Initial(r *rng.Stream) *ipState {
	// Seed with the interference-blind nearest allocation and an empty
	// delivery profile — feasible, and roughly what a CP solver's first
	// incumbent looks like.
	return &ipState{
		alloc:    nearestAllocation(p.in),
		delivery: model.NewDelivery(p.in.N(), p.in.K()),
	}
}

func (p *ipProblem) Clone(s *ipState) *ipState {
	return &ipState{alloc: s.alloc.Clone(), delivery: s.delivery.Clone()}
}

func (p *ipProblem) Mutate(s *ipState, r *rng.Stream) {
	in := p.in
	if r.Bool(0.5) && in.M() > 0 {
		// Reassign a random user to a random covering channel.
		j := r.IntN(in.M())
		vs := in.Top.Coverage[j]
		if len(vs) == 0 {
			return
		}
		i := vs[r.IntN(len(vs))]
		s.alloc[j] = model.Alloc{Server: i, Channel: r.IntN(in.Top.Servers[i].Channels)}
		return
	}
	// Toggle a random delivery decision, respecting Eq. 6.
	i := r.IntN(in.N())
	k := r.IntN(in.K())
	size := in.Wl.Items[k].Size
	if s.delivery.Placed(i, k) {
		// Rebuild without (i,k): Delivery has no Remove on purpose (the
		// greedy never removes), so the mutation reconstructs.
		nd := model.NewDelivery(in.N(), in.K())
		for i2 := 0; i2 < in.N(); i2++ {
			for k2 := 0; k2 < in.K(); k2++ {
				if s.delivery.Placed(i2, k2) && !(i2 == i && k2 == k) {
					nd.Place(i2, k2, in.Wl.Items[k2].Size)
				}
			}
		}
		s.delivery = nd
		return
	}
	if s.delivery.Used(i)+size <= in.Wl.Capacity[i] {
		s.delivery.Place(i, k, size)
	}
}

// latencyWeight is the scalarization weight w of the latency term.
const latencyWeight = 0.25

func (p *ipProblem) Score(s *ipState) float64 {
	rate, lat := p.in.Evaluate(model.Strategy{Alloc: s.alloc, Delivery: s.delivery})
	return float64(rate)/p.rateCap - latencyWeight*float64(lat)/p.cloudAvg
}
