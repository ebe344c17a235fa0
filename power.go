package idde

import (
	"fmt"

	"idde/internal/power"
)

// PowerReport summarizes a transmit-power control pass (see
// internal/power): users with Shannon-cap headroom shed power, cutting
// interference for everyone else, without any user losing rate.
type PowerReport struct {
	// AvgRateBeforeMBps and AvgRateAfterMBps are objective #1 before
	// and after the pass (same allocation profile).
	AvgRateBeforeMBps float64
	AvgRateAfterMBps  float64
	// SavedWatts is the total transmit power shed across users.
	SavedWatts float64
	// TunedUsers counts users whose power was reduced.
	TunedUsers int
	// PowersW holds every user's tuned power.
	PowersW []float64
}

// TunePower runs the power-control extension on a formulated strategy's
// allocation profile. It is a Pareto improvement: no user's rate drops,
// the average rate can only rise, and delivery latency is untouched.
func (sc *Scenario) TunePower(st *Strategy) (*PowerReport, error) {
	if st == nil || st.sc != sc {
		return nil, fmt.Errorf("idde: strategy does not belong to this scenario")
	}
	res, err := power.Tune(sc.in, st.raw.Alloc)
	if err != nil {
		return nil, err
	}
	rep := &PowerReport{
		AvgRateBeforeMBps: float64(res.AvgRateBefore),
		AvgRateAfterMBps:  float64(res.AvgRateAfter),
		SavedWatts:        float64(res.SavedWatts),
		TunedUsers:        res.TunedUsers,
		PowersW:           make([]float64, len(res.Powers)),
	}
	for j, p := range res.Powers {
		rep.PowersW[j] = float64(p)
	}
	return rep, nil
}
