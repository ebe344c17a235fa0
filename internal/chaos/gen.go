package chaos

import (
	"fmt"
	"sort"

	"idde/internal/des"
	"idde/internal/geo"
	"idde/internal/model"
	"idde/internal/rng"
	"idde/internal/units"
)

// GenConfig parametrizes a seeded correlated-failure campaign: one
// spatially clustered multi-server outage, optional wired-link cuts
// among the survivors, and an optional cloud brownout, all striking
// together — the shape of a real power or backhaul incident.
type GenConfig struct {
	// ClusterSize is the number of servers in the correlated outage
	// (≥1; clamped to the server count).
	ClusterSize int
	// OutageDuration is the transient-recovery time; 0 means the
	// servers stay down for the whole campaign.
	OutageDuration units.Seconds
	// LinkCuts severs this many extra wired links among the surviving
	// servers (clamped to what exists).
	LinkCuts int
	// BrownoutFactor scales the cloud-ingress rate during the
	// brownout; 0 or 1 disables it.
	BrownoutFactor float64
	// BrownoutDuration bounds the brownout; 0 with an active factor
	// means permanent.
	BrownoutDuration units.Seconds
	// Faults is the link-level unreliability in force during the
	// campaign.
	Faults des.Faults
}

// Correlated draws one campaign from the config: every fault strikes at
// t = 0, so the campaign opens degraded. An epicenter is chosen
// uniformly among the instance's healthy servers and the ClusterSize
// servers nearest to it fail together, modelling the spatial
// correlation of real outages (a neighbourhood loses power, a conduit
// is cut). All draws come from the stream, so one seed yields one
// campaign, bit-for-bit.
func Correlated(in *model.Instance, cfg GenConfig, s *rng.Stream) Campaign {
	if cfg.ClusterSize < 1 {
		cfg.ClusterSize = 1
	}
	var alive []int
	for i, sv := range in.Top.Servers {
		if !sv.Failed {
			alive = append(alive, i)
		}
	}
	c := Campaign{Faults: cfg.Faults}
	if len(alive) == 0 {
		c.Name = "correlated-empty"
		return c
	}
	if cfg.ClusterSize > len(alive) {
		cfg.ClusterSize = len(alive)
	}
	epicenter := alive[s.IntN(len(alive))]
	center := in.Top.Servers[epicenter].Pos
	byDist := append([]int(nil), alive...)
	sort.Slice(byDist, func(a, b int) bool {
		da := geo.Dist2(center, in.Top.Servers[byDist[a]].Pos)
		db := geo.Dist2(center, in.Top.Servers[byDist[b]].Pos)
		if da != db {
			return da < db
		}
		return byDist[a] < byDist[b]
	})
	cluster := append([]int(nil), byDist[:cfg.ClusterSize]...)
	sort.Ints(cluster)
	c.Name = fmt.Sprintf("correlated-%d@v%d", cfg.ClusterSize, epicenter)
	c.Events = append(c.Events, Event{
		Duration: cfg.OutageDuration,
		Kind:     ServerOutage,
		Servers:  cluster,
	})

	if cfg.LinkCuts > 0 {
		down := map[int]bool{}
		for _, f := range cluster {
			down[f] = true
		}
		var cuttable [][2]int
		for _, e := range in.Top.Net.Edges() {
			if down[e.U] || down[e.V] {
				continue // dies with the cluster anyway
			}
			cuttable = append(cuttable, [2]int{e.U, e.V})
		}
		s.Shuffle(len(cuttable), func(i, j int) { cuttable[i], cuttable[j] = cuttable[j], cuttable[i] })
		n := cfg.LinkCuts
		if n > len(cuttable) {
			n = len(cuttable)
		}
		for _, l := range cuttable[:n] {
			c.Events = append(c.Events, Event{
				Duration: cfg.OutageDuration,
				Kind:     LinkCut,
				Link:     l,
			})
		}
	}

	if cfg.BrownoutFactor > 0 && cfg.BrownoutFactor < 1 {
		c.Events = append(c.Events, Event{
			Duration: cfg.BrownoutDuration,
			Kind:     CloudBrownout,
			Factor:   cfg.BrownoutFactor,
		})
	}
	return c
}
