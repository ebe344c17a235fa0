package idde

import (
	"encoding/json"
	"io"

	"idde/internal/model"
)

// strategyJSON is the deployment artifact: everything an edge
// controller needs to enact a formulated strategy.
type strategyJSON struct {
	Approach ApproachName `json:"approach"`
	Mode     string       `json:"deliveryMode"`
	// Alloc[j] is user j's (server, channel); null for unallocated.
	Alloc []*[2]int `json:"alloc"`
	// Replicas lists σ_{i,k}=1 decisions as [server, item].
	Replicas [][2]int `json:"replicas"`
	// Metrics snapshot for human inspection (recomputed on load).
	AvgRateMBps  float64 `json:"avgRateMBps"`
	AvgLatencyMs float64 `json:"avgLatencyMs"`
}

var modeNames = map[model.DeliveryMode]string{
	model.Collaborative: "collaborative",
	model.CoverageLocal: "coverage-local",
	model.ServerLocal:   "server-local",
}

// Save writes the strategy as indented JSON — the artifact a controller
// would enact (user→channel assignments plus the replica list).
func (st *Strategy) Save(w io.Writer) error {
	out := strategyJSON{
		Approach:     st.Approach,
		Mode:         modeNames[st.raw.Mode],
		Alloc:        make([]*[2]int, len(st.raw.Alloc)),
		AvgRateMBps:  st.AvgRateMBps,
		AvgLatencyMs: st.AvgLatencyMs,
	}
	for j, a := range st.raw.Alloc {
		if a.Allocated() {
			out.Alloc[j] = &[2]int{a.Server, a.Channel}
		}
	}
	for _, r := range st.Replicas() {
		out.Replicas = append(out.Replicas, [2]int{r.Server, r.Item})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
