package chaos

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

func genInstance(t *testing.T, n, m, k int, seed uint64) *model.Instance {
	t.Helper()
	s := rng.New(seed)
	top, err := topology.Generate(topology.DefaultGen(n, m, 1.5), s.Split("top"))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	wl, err := workload.Generate(workload.DefaultGen(k), n, m, s.Split("wl"))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return in
}

func TestCampaignValidate(t *testing.T) {
	in := genInstance(t, 8, 40, 3, 1)
	bad := []Campaign{
		{Events: []Event{{At: -1, Kind: ServerOutage, Servers: []int{0}}}},
		{Events: []Event{{Kind: ServerOutage}}},
		{Events: []Event{{Kind: ServerOutage, Servers: []int{99}}}},
		{Events: []Event{{Kind: LinkCut, Link: [2]int{0, 0}}}},
		{Events: []Event{{Kind: CloudBrownout, Factor: 1.5}}},
		{Events: []Event{{Kind: Kind(42)}}},
	}
	for i, c := range bad {
		if err := c.Validate(in); err == nil {
			t.Errorf("bad campaign %d accepted", i)
		}
	}
	ok := Campaign{Events: []Event{
		{At: 0, Kind: ServerOutage, Servers: []int{0, 1}, Duration: 10},
		{At: 5, Kind: CloudBrownout, Factor: 0.5},
	}}
	if err := ok.Validate(in); err != nil {
		t.Errorf("good campaign rejected: %v", err)
	}
}

func TestEpochSlicing(t *testing.T) {
	c := Campaign{Events: []Event{
		{At: 10, Duration: 20, Kind: ServerOutage, Servers: []int{0}},
		{At: 15, Kind: CloudBrownout, Factor: 0.5},
	}}
	got := c.epochs()
	want := []units.Seconds{0, 10, 15, 30}
	if len(got) != len(want) {
		t.Fatalf("epochs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epochs %v, want %v", got, want)
		}
	}
	d := c.degradationAt(12)
	if len(d.FailedServers) != 1 || d.CloudFactor != 0 {
		t.Errorf("degradation at 12: %+v", d)
	}
	d = c.degradationAt(20)
	if len(d.FailedServers) != 1 || d.CloudFactor != 0.5 {
		t.Errorf("degradation at 20: %+v", d)
	}
	d = c.degradationAt(30)
	if len(d.FailedServers) != 0 || d.CloudFactor != 0.5 {
		t.Errorf("degradation at 30 (after recovery): %+v", d)
	}
}

func TestRunTransientOutageRecovers(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 3)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	gen := Correlated(in, GenConfig{
		ClusterSize:    3,
		OutageDuration: units.Seconds(60),
		Faults:         des.Faults{LossProb: 0.2},
	}, rng.New(5))
	rep, err := Run(context.Background(), in, st, gen, Config{Seed: 9, Spread: units.Seconds(5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 2 {
		t.Fatalf("expected outage + recovery epochs, got %d", len(rep.Epochs))
	}
	out, rec := rep.Epochs[0], rep.Epochs[1]
	if out.DownServers != 3 {
		t.Errorf("outage epoch has %d down servers", out.DownServers)
	}
	if rec.DownServers != 0 {
		t.Errorf("recovery epoch still has %d down servers", rec.DownServers)
	}
	if out.End != 60 || rec.End != -1 {
		t.Errorf("epoch boundaries wrong: %v, %v", out.End, rec.End)
	}
	// Recovery must re-admit: stranded fraction does not increase.
	if rec.StrandedFrac > out.StrandedFrac+1e-9 {
		t.Errorf("recovery stranded %v worse than outage %v", rec.StrandedFrac, out.StrandedFrac)
	}
	// Degradation metrics are finite and sane.
	for i, e := range rep.Epochs {
		if math.IsNaN(e.LatencyInflation) || math.IsInf(e.LatencyInflation, 0) {
			t.Fatalf("epoch %d inflation degenerate: %v", i, e.LatencyInflation)
		}
		if e.StrandedFrac < 0 || e.StrandedFrac > 1 {
			t.Fatalf("epoch %d stranded fraction %v outside [0,1]", i, e.StrandedFrac)
		}
	}
	if out.Retries == 0 {
		t.Error("20% loss outage epoch recorded no retries")
	}
}

func TestRunIdenticalSeedsIdenticalReports(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 3)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	gen := func() Campaign {
		return Correlated(in, GenConfig{
			ClusterSize:    2,
			OutageDuration: units.Seconds(30),
			LinkCuts:       2,
			BrownoutFactor: 0.5,
			Faults:         des.Faults{LossProb: 0.25, StallProb: 0.05, StallTime: units.Seconds(0.01)},
		}, rng.New(7))
	}
	a, err := Run(context.Background(), in, st, gen(), Config{Seed: 11, Spread: units.Seconds(2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), in, st, gen(), Config{Seed: 11, Spread: units.Seconds(2)})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Error("identical seeds produced different reports")
	}
}

func TestMonteCarloSweep(t *testing.T) {
	in := genInstance(t, 12, 70, 4, 5)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	gen := func(i int, s *rng.Stream) Campaign {
		return Correlated(in, GenConfig{
			ClusterSize:    3,
			OutageDuration: units.Seconds(45),
			Faults:         des.Faults{LossProb: 0.2},
		}, s)
	}
	sw, err := MonteCarlo(context.Background(), in, st, gen, SweepConfig{
		Config:    Config{Seed: 2022, Spread: units.Seconds(2)},
		Campaigns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Reports) != 6 {
		t.Fatalf("got %d campaign reports", len(sw.Reports))
	}
	if sw.Stranded.N != 6 {
		t.Errorf("stranded summary over %d campaigns", sw.Stranded.N)
	}
	// Different campaigns hit different epicenters: names must vary
	// across a 6-draw sweep with 12 servers (overwhelmingly likely).
	names := map[string]bool{}
	for _, r := range sw.Reports {
		names[r.Name] = true
	}
	if len(names) < 2 {
		t.Error("every campaign drew the same epicenter — generator not seeded per campaign?")
	}
	if sw.LatencyInflation.Mean < 1 {
		t.Errorf("mean worst latency inflation %v < 1 under 20%% loss", sw.LatencyInflation.Mean)
	}
	// Reproducibility of the whole sweep.
	sw2, err := MonteCarlo(context.Background(), in, st, gen, SweepConfig{
		Config:    Config{Seed: 2022, Spread: units.Seconds(2)},
		Campaigns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := sw.JSON()
	j2, _ := sw2.JSON()
	if j1 != j2 {
		t.Error("sweep not reproducible under identical seed")
	}
	// Rendering is non-empty and mentions the metrics.
	md := sw.MarkdownSummary()
	if len(md) == 0 || !strings.Contains(md, "stranded users") || !strings.Contains(md, "latency inflation") {
		t.Errorf("summary markdown incomplete:\n%s", md)
	}
	if tbl := sw.Reports[0].MarkdownTable(); !strings.Contains(tbl, "Campaign") {
		t.Errorf("campaign markdown incomplete:\n%s", tbl)
	}
}

// sweepPin is the SHA-256 of TestSweepReportPinned's SweepReport.JSON().
// Repair, the simulator and the sweep's summaries all feed those bytes,
// so a change that moves any epoch's rate, latency, fault counters,
// moves or lost/re-placed replicas changes the digest.
const sweepPin = "3d37615f6a6de8100f432dc7bbe3dc0843268815b63630dfb010a1f16f3069b0"

// TestSweepReportPinned pins the exact output of one small seeded sweep
// of correlated campaigns: clustered outages with recovery, a link cut,
// a cloud brownout and lossy, stalling wired hops.
func TestSweepReportPinned(t *testing.T) {
	in := genInstance(t, 12, 70, 4, 5)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	gen := func(i int, s *rng.Stream) Campaign {
		return Correlated(in, GenConfig{
			ClusterSize:      2,
			OutageDuration:   units.Seconds(30),
			LinkCuts:         1,
			BrownoutFactor:   0.5,
			BrownoutDuration: units.Seconds(20),
			Faults:           des.Faults{LossProb: 0.15, StallProb: 0.05, StallTime: units.Seconds(0.01)},
		}, s)
	}
	sw, err := MonteCarlo(context.Background(), in, st, gen, SweepConfig{
		Config:    Config{Seed: 31, Spread: units.Seconds(2)},
		Campaigns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	js, err := sw.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(js))); got != sweepPin {
		t.Errorf("sweep report digest %s, pinned %s", got, sweepPin)
	}
}
