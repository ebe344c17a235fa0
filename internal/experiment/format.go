package experiment

import (
	"fmt"
	"sort"
	"strings"

	"idde/internal/cloudlat"
)

// Metric selects which figure panel to format.
type Metric int

const (
	// RateMetric is R_avg in MBps (panel (a) of Figures 3–6).
	RateMetric Metric = iota
	// LatencyMetric is L_avg in ms (panel (b) of Figures 3–6).
	LatencyMetric
	// TimeMetric is the computation time in seconds (Figure 7).
	TimeMetric
)

func (m Metric) String() string {
	switch m {
	case RateMetric:
		return "R_avg (MBps)"
	case LatencyMetric:
		return "L_avg (ms)"
	case TimeMetric:
		return "time (s)"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

func (m Metric) value(mm Metrics) float64 {
	switch m {
	case RateMetric:
		return mm.Rate.Mean
	case LatencyMetric:
		return mm.LatencyMs.Mean
	case TimeMetric:
		return mm.TimeSec.Mean
	default:
		panic(fmt.Sprintf("experiment: unknown metric %d", int(m)))
	}
}

// ApproachOrder is the paper's legend order.
var ApproachOrder = []string{"IDDE-IP", "IDDE-G", "SAA", "CDP", "DUP-G"}

// Approaches lists the approach names present in the result, in legend
// order, with unknown names appended alphabetically.
func (sr *SetResult) Approaches() []string {
	present := map[string]bool{}
	for _, pt := range sr.Points {
		for name := range pt.ByApproach {
			present[name] = true
		}
	}
	var out []string
	for _, name := range ApproachOrder {
		if present[name] {
			out = append(out, name)
			delete(present, name)
		}
	}
	var rest []string
	for name := range present {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// MarkdownTable renders one figure panel as a GitHub-flavored table:
// rows are x values, columns are approaches.
func (sr *SetResult) MarkdownTable(m Metric) string {
	aps := sr.Approaches()
	var b strings.Builder
	fmt.Fprintf(&b, "%s vs %s (Set #%d, %d reps)\n\n", m, sr.Set.Vary, sr.Set.ID, sr.Config.Reps)
	fmt.Fprintf(&b, "| %s |", sr.Set.Vary)
	for _, ap := range aps {
		fmt.Fprintf(&b, " %s |", ap)
	}
	b.WriteString("\n|---|")
	for range aps {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, pt := range sr.Points {
		fmt.Fprintf(&b, "| %g |", pt.X)
		for _, ap := range aps {
			fmt.Fprintf(&b, " %.2f |", m.value(pt.ByApproach[ap]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders one figure panel as comma-separated series with a header,
// ready for plotting.
func (sr *SetResult) CSV(m Metric) string {
	aps := sr.Approaches()
	var b strings.Builder
	fmt.Fprintf(&b, "%s", sr.Set.Vary)
	for _, ap := range aps {
		fmt.Fprintf(&b, ",%s", ap)
	}
	b.WriteString("\n")
	for _, pt := range sr.Points {
		fmt.Fprintf(&b, "%g", pt.X)
		for _, ap := range aps {
			fmt.Fprintf(&b, ",%.6g", m.value(pt.ByApproach[ap]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SeriesFor extracts one figure panel as plottable series: the x values
// and, per approach (legend order), the metric means.
func (sr *SetResult) SeriesFor(m Metric) (xs []float64, labels []string, ys [][]float64) {
	labels = sr.Approaches()
	xs = make([]float64, len(sr.Points))
	ys = make([][]float64, len(labels))
	for li := range labels {
		ys[li] = make([]float64, len(sr.Points))
	}
	for pi, pt := range sr.Points {
		xs[pi] = pt.X
		for li, name := range labels {
			ys[li][pi] = m.value(pt.ByApproach[name])
		}
	}
	return xs, labels, ys
}

// Advantage reports IDDE-G's mean relative advantage over the named
// approach across the set, in the orientation the paper quotes (§4.5.1):
// rate advantage = (ours−theirs)/theirs, latency advantage =
// (theirs−ours)/theirs; both averaged over x values.
func (sr *SetResult) Advantage(other string, m Metric) float64 {
	total, n := 0.0, 0
	for _, pt := range sr.Points {
		ours, ok1 := pt.ByApproach["IDDE-G"]
		theirs, ok2 := pt.ByApproach[other]
		if !ok1 || !ok2 {
			continue
		}
		ov, tv := m.value(ours), m.value(theirs)
		if tv == 0 {
			continue
		}
		if m == RateMetric {
			total += (ov - tv) / tv
		} else {
			total += (tv - ov) / tv
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// TimingMarkdown renders Figure 7: mean computation time per approach
// for each set.
func TimingMarkdown(srs []*SetResult) string {
	var b strings.Builder
	b.WriteString("Computation time (s) per approach (Figure 7)\n\n| Set |")
	if len(srs) == 0 {
		return b.String()
	}
	aps := srs[0].Approaches()
	for _, ap := range aps {
		fmt.Fprintf(&b, " %s |", ap)
	}
	b.WriteString("\n|---|")
	for range aps {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, sr := range srs {
		fmt.Fprintf(&b, "| #%d |", sr.Set.ID)
		for _, ap := range aps {
			var sum float64
			for _, pt := range sr.Points {
				sum += pt.ByApproach[ap].TimeSec.Mean
			}
			fmt.Fprintf(&b, " %.4f |", sum/float64(len(sr.Points)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig1Markdown renders the Figure 1 latency-probe data.
func Fig1Markdown(series []cloudlat.Series) string {
	var b strings.Builder
	b.WriteString("End-to-end network latency (Figure 1), hourly × 1 week\n\n")
	b.WriteString("| Setting | Kind | Mean (ms) | Min (ms) | Max (ms) |\n|---|---|---|---|---|\n")
	for _, s := range series {
		fmt.Fprintf(&b, "| %s | %s | %.1f | %.1f | %.1f |\n",
			s.Target.Name, s.Target.Kind, s.Mean.Millis(), s.Min.Millis(), s.Max.Millis())
	}
	return b.String()
}

// Table2Markdown renders the parameter settings table.
func Table2Markdown() string {
	var b strings.Builder
	b.WriteString("Parameter settings (Table 2)\n\n| Set | N | M | K | density |\n|---|---|---|---|---|\n")
	for _, s := range Sets() {
		cell := func(name string, base int) string {
			if s.Vary == name {
				return fmt.Sprintf("%g..%g", s.Values[0], s.Values[len(s.Values)-1])
			}
			return fmt.Sprintf("%d", base)
		}
		dens := fmt.Sprintf("%.1f", s.Base.Density)
		if s.Vary == "density" {
			dens = fmt.Sprintf("%g..%g", s.Values[0], s.Values[len(s.Values)-1])
		}
		fmt.Fprintf(&b, "| #%d | %s | %s | %s | %s |\n",
			s.ID, cell("N", s.Base.N), cell("M", s.Base.M), cell("K", s.Base.K), dens)
	}
	return b.String()
}
