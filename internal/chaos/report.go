package chaos

import (
	"encoding/json"
	"fmt"
	"strings"
)

// MarkdownTable renders the campaign's per-epoch degradation as a
// GitHub-flavored table.
func (cr *CampaignReport) MarkdownTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign %s (seed %d) — healthy: %.2f MBps, %.3f ms\n\n",
		cr.Name, cr.Seed, cr.HealthyRateMBps, cr.HealthyLatencyMs)
	b.WriteString("| epoch (s) | down | cuts | cloud | stranded | rate (MBps) | lat (ms) | inflation | retries | failovers | moves |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, e := range cr.Epochs {
		end := "∞"
		if e.End >= 0 {
			end = fmt.Sprintf("%g", float64(e.End))
		}
		fmt.Fprintf(&b, "| %g–%s | %d | %d | ×%.2f | %.1f%% | %.2f | %.3f | ×%.2f | %d | %d | %d |\n",
			float64(e.Start), end, e.DownServers, e.CutLinks, e.CloudFactor,
			100*e.StrandedFrac, e.RateMBps, e.LatencyMs, e.LatencyInflation,
			e.Retries, e.Failovers, e.Moves)
	}
	return b.String()
}

// MarkdownSummary renders the sweep's aggregate degradation metrics.
func (sw *SweepReport) MarkdownSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos sweep — %d campaigns (worst-epoch metrics, mean ±95%% CI)\n\n", sw.Campaigns)
	b.WriteString("| metric | mean | ±CI | min | max |\n|---|---|---|---|---|\n")
	for _, r := range []struct {
		name              string
		mean, ci, mn, mx  float64
		percent, integral bool
	}{
		{"stranded users", sw.Stranded.Mean, sw.Stranded.CI95, sw.Stranded.Min, sw.Stranded.Max, true, false},
		{"latency inflation", sw.LatencyInflation.Mean, sw.LatencyInflation.CI95, sw.LatencyInflation.Min, sw.LatencyInflation.Max, false, false},
		{"rate drop", sw.RateDrop.Mean, sw.RateDrop.CI95, sw.RateDrop.Min, sw.RateDrop.Max, true, false},
		{"retries", sw.Retries.Mean, sw.Retries.CI95, sw.Retries.Min, sw.Retries.Max, false, true},
		{"failovers", sw.Failovers.Mean, sw.Failovers.CI95, sw.Failovers.Min, sw.Failovers.Max, false, true},
		{"repair moves", sw.Moves.Mean, sw.Moves.CI95, sw.Moves.Min, sw.Moves.Max, false, true},
		{"replicas lost", sw.ReplicasLost.Mean, sw.ReplicasLost.CI95, sw.ReplicasLost.Min, sw.ReplicasLost.Max, false, true},
		{"replicas re-placed", sw.ReplicasReplaced.Mean, sw.ReplicasReplaced.CI95, sw.ReplicasReplaced.Min, sw.ReplicasReplaced.Max, false, true},
	} {
		switch {
		case r.percent:
			fmt.Fprintf(&b, "| %s | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
				r.name, 100*r.mean, 100*r.ci, 100*r.mn, 100*r.mx)
		case r.integral:
			fmt.Fprintf(&b, "| %s | %.1f | %.1f | %.0f | %.0f |\n",
				r.name, r.mean, r.ci, r.mn, r.mx)
		default:
			fmt.Fprintf(&b, "| %s | ×%.3f | %.3f | ×%.3f | ×%.3f |\n",
				r.name, r.mean, r.ci, r.mn, r.mx)
		}
	}
	return b.String()
}

// JSON renders the sweep report as indented JSON.
func (sw *SweepReport) JSON() (string, error) {
	out, err := json.MarshalIndent(sw, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}
