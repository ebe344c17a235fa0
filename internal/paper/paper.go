// Package paper records the numbers the paper's evaluation section
// (§4.5) actually quotes, as data, so the harness can print a
// paper-vs-measured comparison for every figure. Absolute values are
// not expected to match (the substrate is a simulator, not the authors'
// testbed and CPLEX license); the *shape* — who wins, by roughly what
// factor, how curves move — is what EXPERIMENTS.md verifies.
package paper

import (
	"fmt"
	"strings"

	"idde/internal/experiment"
)

// Approach names in the paper's legend order, minus IDDE-G itself.
var Baselines = []string{"IDDE-IP", "SAA", "CDP", "DUP-G"}

// Advantages are IDDE-G's mean relative advantages in percent, in the
// orientation the paper quotes: rate = (ours−theirs)/theirs, latency =
// (theirs−ours)/theirs.
type Advantages struct {
	Rate    map[string]float64
	Latency map[string]float64
}

// Overall is §4.5.1's headline: "the average advantage of IDDE-G in
// terms of data rate is 9.20% over IDDE-IP, 53.27% over SAA, 29.40%
// over CDP and 41.56% over DUP-G … latency … 82.61%, 71.60%, 84.60%
// and 85.04%".
var Overall = Advantages{
	Rate:    map[string]float64{"IDDE-IP": 9.20, "SAA": 53.27, "CDP": 29.40, "DUP-G": 41.56},
	Latency: map[string]float64{"IDDE-IP": 82.61, "SAA": 71.60, "CDP": 84.60, "DUP-G": 85.04},
}

// PerSet are the per-set advantages quoted in §4.5.1. The paper does
// not quote Set #2/#3 latency advantages or Set #2/#3 splits for every
// baseline; missing entries are simply absent.
var PerSet = map[int]Advantages{
	1: {
		Rate:    map[string]float64{"IDDE-IP": 10.36, "SAA": 55.55, "CDP": 28.99, "DUP-G": 41.51},
		Latency: map[string]float64{"IDDE-IP": 83.16, "SAA": 70.42, "CDP": 84.05, "DUP-G": 82.76},
	},
	2: {
		Rate: map[string]float64{"IDDE-IP": 5.47, "SAA": 45.43, "CDP": 26.32, "DUP-G": 29.15},
	},
	3: {
		Rate: map[string]float64{"IDDE-IP": 7.25, "SAA": 50.03, "CDP": 25.69, "DUP-G": 43.19},
	},
	4: {
		Rate:    map[string]float64{"IDDE-IP": 13.94, "SAA": 62.92, "CDP": 36.87, "DUP-G": 54.91},
		Latency: map[string]float64{"IDDE-IP": 90.38, "SAA": 75.91, "CDP": 89.63, "DUP-G": 86.72},
	},
}

// Set2RateEndpoints are §4.5.1's Fig. 4(a) endpoints: R_avg at M=50 and
// M=350 per approach, in MBps.
var Set2RateEndpoints = map[string][2]float64{
	"IDDE-G":  {196.71, 68.48},
	"IDDE-IP": {196.06, 62.01},
	"SAA":     {143.75, 49.60},
	"CDP":     {153.62, 60.87},
	"DUP-G":   {174.76, 58.26},
}

// Set3LatencyRange are Fig. 5(b)'s quoted ranges: L_avg at K=2 and K=8
// per approach, in ms.
var Set3LatencyRange = map[string][2]float64{
	"IDDE-G":  {2.61, 7.52},
	"IDDE-IP": {18.58, 38.50},
	"SAA":     {9.33, 22.12},
	"CDP":     {24.12, 36.80},
	"DUP-G":   {32.16, 48.88},
}

// Set3LatencyMean are §4.5.1's Set #3 mean latencies in ms.
var Set3LatencyMean = map[string]float64{
	"IDDE-G": 5.22, "IDDE-IP": 27.98, "SAA": 16.88, "CDP": 31.26, "DUP-G": 41.10,
}

// Fig7MeanSeconds are §4.5.2's mean computation times in seconds. The
// paper caps CPLEX at 100 s of search; our IDDE-IP is capped at an
// evaluation count instead, so only the *ordering* is checked against
// this row.
var Fig7MeanSeconds = map[string]float64{
	"IDDE-IP": 135.3881, "SAA": 0.6626, "IDDE-G": 0.3620, "CDP": 0.1691, "DUP-G": 0.3716,
}

// Fig1ApproxMeansMs are Figure 1's approximate bar heights in ms (read
// off the plot; the paper prints no table).
var Fig1ApproxMeansMs = map[string]float64{
	"Edge": 10, "Singapore": 100, "London": 250, "Frankfurt": 270,
}

// Check is one paper-vs-measured comparison row.
type Check struct {
	Name     string
	Paper    float64
	Measured float64
	Unit     string
	// OK is the shape verdict: the measured value agrees with the
	// paper in sign/direction (not magnitude).
	OK bool
}

// ran lists the Baselines that sr's configuration ran, in legend order.
func ran(sr *experiment.SetResult) []string {
	var out []string
	for _, name := range Baselines {
		for _, a := range sr.Config.Approaches {
			if a.Name() == name {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// CompareAdvantages computes IDDE-G's measured advantages for a set and
// lines them up with the paper's quoted values where present. A row is
// OK when the measured advantage is positive (IDDE-G wins), which is
// the claim the paper's sentence encodes. Baselines the set did not run
// get no row.
func CompareAdvantages(sr *experiment.SetResult) []Check {
	quoted := PerSet[sr.Set.ID]
	names := ran(sr)
	var out []Check
	for _, name := range names {
		measured := sr.Advantage(name, experiment.RateMetric) * 100
		row := Check{
			Name:     fmt.Sprintf("Set #%d rate advantage vs %s", sr.Set.ID, name),
			Measured: measured,
			Unit:     "%",
			OK:       measured > 0,
		}
		if quoted.Rate != nil {
			row.Paper = quoted.Rate[name]
		}
		out = append(out, row)
	}
	for _, name := range names {
		measured := sr.Advantage(name, experiment.LatencyMetric) * 100
		row := Check{
			Name:     fmt.Sprintf("Set #%d latency advantage vs %s", sr.Set.ID, name),
			Measured: measured,
			Unit:     "%",
			OK:       measured > 0,
		}
		if quoted.Latency != nil {
			row.Paper = quoted.Latency[name]
		}
		out = append(out, row)
	}
	return out
}

// Markdown renders checks as a table. Rows with no quoted paper value
// print a dash.
func Markdown(checks []Check) string {
	var b strings.Builder
	b.WriteString("| Quantity | Paper | Measured | Shape |\n|---|---|---|---|\n")
	for _, c := range checks {
		pv := "—"
		if c.Paper != 0 {
			pv = fmt.Sprintf("%.2f%s", c.Paper, c.Unit)
		}
		verdict := "✗"
		if c.OK {
			verdict = "✓"
		}
		fmt.Fprintf(&b, "| %s | %s | %.2f%s | %s |\n", c.Name, pv, c.Measured, c.Unit, verdict)
	}
	return b.String()
}

// OverallMarkdown renders §4.5.1's headline table: for each baseline the
// sets ran, the paper's overall rate and latency advantages next to
// IDDE-G's measured ones averaged over srs, which all ran the same
// approaches.
func OverallMarkdown(srs []*experiment.SetResult) string {
	if len(srs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("| Baseline | Paper rate adv | Measured rate adv | Paper latency adv | Measured latency adv |\n|---|---|---|---|---|\n")
	n := float64(len(srs))
	for _, name := range ran(srs[0]) {
		var rate, lat float64
		for _, sr := range srs {
			rate += sr.Advantage(name, experiment.RateMetric)
			lat += sr.Advantage(name, experiment.LatencyMetric)
		}
		fmt.Fprintf(&b, "| %s | %.2f%% | %.2f%% | %.2f%% | %.2f%% |\n",
			name, Overall.Rate[name], rate/n*100, Overall.Latency[name], lat/n*100)
	}
	return b.String()
}
