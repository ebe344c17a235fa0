// Package power implements an optional transmit-power control pass on
// top of a user allocation profile — the third decision axis ("power
// allocation") of the multi-access caching work the paper compares
// against, offered here as an extension to IDDE-G.
//
// The observation: Eq. (4) caps every user's rate at R_{j,max}, and an
// uncongested user's SINR is often orders of magnitude above what the
// cap needs. Such users can shed transmit power without losing a single
// MBps of their own rate, while every co-channel user's interference
// terms (both the intra-cell sum and the inter-cell F of Eq. 2) shrink.
// Iterating this to a fixed point raises the system's average data rate
// and cuts radiated energy, for free.
//
// The pass is conservative: a user's power is only reduced if its own
// rate stays at least what it was before the pass (not merely above
// some target), so no user is ever worse off — the adjustment is a
// Pareto improvement in rates.
package power

import (
	"fmt"

	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/topology"
	"idde/internal/units"
)

// The power-control pass is tuned by three constants.
const (
	// maxRounds bounds the sweep count.
	maxRounds = 16
	// step is the multiplicative power reduction tried per round
	// (−1.5 dB steps).
	step = 0.7
	// minPower floors the tuned power.
	minPower units.Watts = 0.2
)

// Result reports the outcome of a pass.
type Result struct {
	// Powers holds every user's tuned transmit power.
	Powers []units.Watts
	// AvgRateBefore and AvgRateAfter are Eq. 5 under the original and
	// tuned powers (same allocation profile).
	AvgRateBefore, AvgRateAfter units.Rate
	// SavedWatts is the total transmit power shed.
	SavedWatts units.Watts
	// TunedUsers counts users whose power changed.
	TunedUsers int
	// Rounds actually used.
	Rounds int
}

// evaluator computes rates under a mutable power vector, sharing the
// instance's gain rows and allocation registries.
type evaluator struct {
	in     *model.Instance
	alloc  model.Allocation
	powers []units.Watts
	// users[i][x] lists users on channel x of server i.
	users [][][]int
}

func newEvaluator(in *model.Instance, alloc model.Allocation) *evaluator {
	ev := &evaluator{
		in:     in,
		alloc:  alloc.Clone(),
		powers: make([]units.Watts, in.M()),
		users:  make([][][]int, in.N()),
	}
	for j := range ev.powers {
		ev.powers[j] = in.Top.Users[j].Power
	}
	for i := 0; i < in.N(); i++ {
		ev.users[i] = make([][]int, in.Top.Servers[i].Channels)
	}
	for j, a := range ev.alloc {
		if a.Allocated() {
			ev.users[a.Server][a.Channel] = append(ev.users[a.Server][a.Channel], j)
		}
	}
	return ev
}

// rate evaluates Eqs. (2)–(4) for user j under the current powers.
func (ev *evaluator) rate(j int) units.Rate {
	a := ev.alloc[j]
	if !a.Allocated() {
		return 0
	}
	gr := ev.in.GainRow(a.Server)
	g := gr.At(j)
	var intra float64
	for _, t := range ev.users[a.Server][a.Channel] {
		if t != j {
			intra += float64(ev.powers[t])
		}
	}
	var f float64
	for _, o := range ev.in.Top.Coverage[j] {
		if o == a.Server || a.Channel >= len(ev.users[o]) {
			continue
		}
		for _, t := range ev.users[o][a.Channel] {
			if t != j {
				f += gr.At(t) * float64(ev.powers[t])
			}
		}
	}
	sinr := ev.in.Radio.SINR(g, ev.powers[j], units.Watts(intra), units.Watts(f))
	r := radio.ShannonRate(ev.in.Top.Servers[a.Server].Bandwidth, sinr)
	return radio.CapRate(r, ev.in.Top.Users[j].MaxRate)
}

func (ev *evaluator) avgRate() units.Rate {
	if ev.in.M() == 0 {
		return 0
	}
	var sum float64
	for j := 0; j < ev.in.M(); j++ {
		sum += float64(ev.rate(j))
	}
	return units.Rate(sum / float64(ev.in.M()))
}

// Tune runs the power-control pass for the given allocation profile.
func Tune(in *model.Instance, alloc model.Allocation) (*Result, error) {
	if err := in.CheckAllocation(alloc); err != nil {
		return nil, fmt.Errorf("power: %w", err)
	}

	ev := newEvaluator(in, alloc)
	res := &Result{AvgRateBefore: ev.avgRate()}

	// Each user must keep at least its pre-pass rate.
	floor := make([]units.Rate, in.M())
	for j := range floor {
		floor[j] = ev.rate(j)
	}

	for round := 0; round < maxRounds; round++ {
		changed := false
		for j := 0; j < in.M(); j++ {
			if !ev.alloc[j].Allocated() {
				continue
			}
			cand := units.Watts(float64(ev.powers[j]) * step)
			if cand < minPower {
				cand = minPower
			}
			if cand >= ev.powers[j] {
				continue
			}
			old := ev.powers[j]
			ev.powers[j] = cand
			// Shedding power never hurts anyone else, so only the
			// user's own rate needs re-checking against its floor.
			if ev.rate(j) < floor[j] {
				ev.powers[j] = old
				continue
			}
			changed = true
		}
		res.Rounds = round + 1
		if !changed {
			break
		}
	}

	res.Powers = ev.powers
	res.AvgRateAfter = ev.avgRate()
	for j := 0; j < in.M(); j++ {
		saved := in.Top.Users[j].Power - ev.powers[j]
		if saved > 0 {
			res.SavedWatts += saved
			res.TunedUsers++
		}
	}
	return res, nil
}

// Apply builds a new instance with the tuned powers, for downstream
// evaluation (delivery, simulation). The topology is copied; the gain
// rows are power-independent and could be shared, but model.New keeps
// ownership simple by recomputing them.
func Apply(in *model.Instance, powers []units.Watts) (*model.Instance, error) {
	if len(powers) != in.M() {
		return nil, fmt.Errorf("power: %d powers for %d users", len(powers), in.M())
	}
	top := *in.Top
	top.Users = append([]topology.User(nil), in.Top.Users...)
	for j := range top.Users {
		if powers[j] <= 0 {
			return nil, fmt.Errorf("power: non-positive power for user %d", j)
		}
		top.Users[j].Power = powers[j]
	}
	if err := top.Finalize(); err != nil {
		return nil, err
	}
	return model.New(&top, in.Wl, in.Radio)
}
