package model

import "idde/internal/units"

// BestSource resolves Eq. 8's argmin for request (j,k) under the given
// profiles and delivery mode: the edge server the item should be fetched
// from, or viaEdge=false when the cloud wins (or no edge holder
// qualifies). Ties between an edge holder and the cloud go to the edge,
// matching the simulator's historical behaviour.
//
// The skip predicate (nil = no exclusions) removes candidate sources
// from consideration. The discrete-event simulator's failover path uses
// it to ask for the next-best replica after a source has exhausted its
// retry budget, and chaos tooling uses it to preview degraded routings.
func (in *Instance) BestSource(alloc Allocation, d *Delivery, j, k int, mode DeliveryMode, skip func(server int) bool) (src int, viaEdge bool) {
	a := alloc[j]
	if !a.Allocated() {
		return -1, false
	}
	none := func(int) bool { return false }
	if skip == nil {
		skip = none
	}
	switch mode {
	case Collaborative:
		best := in.CloudLatency(k)
		src = -1
		for o := 0; o < in.N(); o++ {
			if skip(o) || !d.Placed(o, k) {
				continue
			}
			if l := in.EdgeLatency(k, o, a.Server); l < best || (src < 0 && l <= best) {
				best = l
				src = o
			}
		}
		if src < 0 {
			return -1, false
		}
		return src, true
	case CoverageLocal:
		for _, o := range in.Top.Coverage[j] {
			if !skip(o) && d.Placed(o, k) {
				return o, true
			}
		}
	case ServerLocal:
		if !skip(a.Server) && d.Placed(a.Server, k) {
			return a.Server, true
		}
	}
	return -1, false
}

// Nearest is one attachment server's Collaborative Eq. 8 choice for an
// item: the source BestSource picks (−1 for the cloud) and the latency
// the request is delivered at.
type Nearest struct {
	Src int32
	Lat units.Seconds
}

// NearestSources is BestSource's Collaborative branch for every
// attachment server at once: out[i] receives the source BestSource
// returns for item k requested through server i with no exclusions,
// and that source's EdgeLatency (CloudLatency(k) when the cloud wins),
// which is also RequestLatencyMode's minimum. len(out) must be N.
//
// It streams each holder's PathCost row in ascending holder order and
// keeps a running best per server under BestSource's comparison, so
// every server sees the scan's comparisons in the scan's order: the
// source, its tie-breaks and the latency match the scan bit for bit.
// The cost is one sequential row per holder, O(holders·N), where the
// scan reads a PathCost column strided across rows for each server.
func (in *Instance) NearestSources(d *Delivery, k int, out []Nearest) {
	cloud := in.CloudLatency(k)
	for i := range out {
		out[i] = Nearest{Src: -1, Lat: cloud}
	}
	size := in.Wl.Items[k].Size
	for o := 0; o < in.N(); o++ {
		if !d.Placed(o, k) {
			continue
		}
		row := in.Top.PathCost[o][:len(out)]
		for i, c := range row {
			e := &out[i]
			if l := c.Times(size); l < e.Lat || (e.Src < 0 && l <= e.Lat) {
				e.Src, e.Lat = int32(o), l
			}
		}
	}
}
