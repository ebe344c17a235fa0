package des

import (
	"fmt"
	"math"
	"testing"

	"idde/internal/core"
	"idde/internal/model"
	"idde/internal/repair"
	"idde/internal/rng"
	"idde/internal/units"
)

// reportDigest folds a reliable-mode Report into one FNV-1a word: every
// PerRequest latency's bits in workload order, then Events,
// CloudRequests, the bits of Avg and of the makespan.
func reportDigest(rep *Report) uint64 {
	h := uint64(rng.FNVOffset)
	for _, l := range rep.PerRequest {
		h = rng.FNVWord(h, math.Float64bits(float64(l)))
	}
	h = rng.FNVWord(h, uint64(rep.Events))
	h = rng.FNVWord(h, uint64(rep.CloudRequests))
	h = rng.FNVWord(h, math.Float64bits(float64(rep.Avg)))
	return rng.FNVWord(h, math.Float64bits(float64(rep.makespan)))
}

// TestReliableReportPinned pins the reliable simulator's reports, taken
// at the commit before the reliable mode moved onto the fault engine:
// every delivery mode at three arrival spreads (a synchronized burst, a
// contended window, a nearly idle one), on a healthy instance and on a
// one-server-down instance with its repaired strategy.
func TestReliableReportPinned(t *testing.T) {
	in := genInstance(t, 12, 70, 4, 11)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	deg, err := repair.Degrade(in, repair.Degradation{FailedServers: []int{st.Alloc[0].Server}})
	if err != nil {
		t.Fatal(err)
	}
	repaired, _, err := repair.RepairDegraded(in, deg, st, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"healthy/collaborative/0":     0xf6d2eb17f8cd039c,
		"healthy/collaborative/0.1":   0xe7616ff4d6e84fd4,
		"healthy/collaborative/10":    0x807c69eb95c43d62,
		"healthy/coverage-local/0":    0xa3effb32b686a6c8,
		"healthy/coverage-local/0.1":  0x1725e7753de09a48,
		"healthy/coverage-local/10":   0x39d25ed664292c7a,
		"healthy/server-local/0":      0x78bab22a06596e73,
		"healthy/server-local/0.1":    0x77eff2dd20abd811,
		"healthy/server-local/10":     0x8869bfbda02ef2ab,
		"degraded/collaborative/0":    0xd30ca45acbd78abb,
		"degraded/collaborative/0.1":  0x28eda163d3d3cee2,
		"degraded/collaborative/10":   0xa10847819d312c4b,
		"degraded/coverage-local/0":   0x1ea9d9a188ebd9cc,
		"degraded/coverage-local/0.1": 0x41cfdfc0db7e393a,
		"degraded/coverage-local/10":  0x8b2eb602d77fd8fe,
		"degraded/server-local/0":     0xa0084927057c8045,
		"degraded/server-local/0.1":   0xc526f216800e9b5f,
		"degraded/server-local/10":    0xe0616c309d330a77,
	}
	cases := []struct {
		name string
		in   *model.Instance
		st   model.Strategy
	}{{"healthy", in, st}, {"degraded", deg, repaired}}
	for ci, c := range cases {
		for _, mode := range []model.DeliveryMode{model.Collaborative, model.CoverageLocal, model.ServerLocal} {
			for si, spread := range []units.Seconds{0, 0.1, 10} {
				key := fmt.Sprintf("%s/%s/%v", c.name, mode, float64(spread))
				s := c.st
				s.Mode = mode
				rep := Simulate(c.in, s, SimOptions{Spread: spread}, rng.New(uint64(100*ci+10*int(mode)+si)))
				if rep.Retries != 0 || rep.Failovers != 0 || rep.CloudFallbacks != 0 || rep.Stalls != 0 {
					t.Errorf("%s: reliable run reported faults: %d retries, %d failovers, %d fallbacks, %d stalls",
						key, rep.Retries, rep.Failovers, rep.CloudFallbacks, rep.Stalls)
				}
				if got := reportDigest(rep); got != want[key] {
					t.Errorf("%s: report digest %#x, want %#x", key, got, want[key])
				}
			}
		}
	}
}
