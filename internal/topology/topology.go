// Package topology models the physical layout of an edge storage
// system: edge servers with coverage disks and wireless channels, mobile
// users with transmit powers, and the wired inter-server network. It
// stands in for the EUA dataset the paper samples (125 servers and 816
// users in the Melbourne CBD) — see DESIGN.md §4 for the substitution
// rationale — and precomputes the coverage sets V_j / U_i and the
// all-pairs path costs that every IDDE algorithm consumes.
package topology

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"idde/internal/geo"
	"idde/internal/graph"
	"idde/internal/units"
)

// Server is an edge server v_i: a base station with storage, wireless
// channels and a radio footprint.
type Server struct {
	ID       int          `json:"id"`
	Pos      geo.Point    `json:"pos"`
	Radius   units.Meters `json:"radius"`
	Channels int          `json:"channels"`
	// Bandwidth is the per-channel bandwidth B_{i,x} (all channels of a
	// server share it, as in §4.2's "3 channels, each with a bandwidth
	// of 200MBps").
	Bandwidth units.Rate `json:"bandwidth"`
	// Failed marks a server that is down: it covers no users, serves no
	// replicas and forwards no traffic. Failure-injection scenarios set
	// it (internal/repair); generators never do.
	Failed bool `json:"failed,omitempty"`
}

// User is a mobile user u_j with a device transmit power p_j and the
// Shannon-constraint rate cap R_{j,max} of Eq. (4).
type User struct {
	ID      int         `json:"id"`
	Pos     geo.Point   `json:"pos"`
	Power   units.Watts `json:"power"`
	MaxRate units.Rate  `json:"maxRate"`
}

// Topology is an immutable scenario layout. Build one with the
// Generator or assemble the fields manually and call Finalize.
type Topology struct {
	Region  geo.Rect `json:"region"`
	Servers []Server `json:"servers"`
	Users   []User   `json:"users"`
	// Links carries the inter-server network; it is serialized as an
	// edge list.
	Net *graph.Graph `json:"-"`
	// CloudRate is the delivery speed from the remote cloud to any edge
	// server (600 MBps in §4.2).
	CloudRate units.Rate `json:"cloudRate"`
	// AllowPartition permits a disconnected wired network: unreachable
	// server pairs get +Inf path cost and Eq. 8 falls back to the
	// cloud. Failure-injection sets it; healthy topologies are rejected
	// when disconnected, since that indicates a generator bug.
	AllowPartition bool `json:"-"`

	// Derived state, populated by Finalize:

	// Coverage[j] lists the servers covering user j (the paper's V_j),
	// ascending by id.
	Coverage [][]int `json:"-"`
	// Covered[i] lists the users inside server i's footprint (U_i).
	Covered [][]int `json:"-"`
	// PathCost[o][i] is the cheapest per-MB transfer cost between
	// servers o and i over the wired network (the basis of Eq. 8's
	// L_{k,o,i}); +Inf when unreachable.
	PathCost [][]units.SecondsPerMB `json:"-"`
	// CloudCost is the per-MB cost of delivering from the cloud.
	CloudCost units.SecondsPerMB `json:"-"`

	// finalized records that Finalize ran since the last structural
	// mutation. Distances are not stored: an N×M matrix is the O(N·M)
	// wall that kept instances off the M≥10⁵ rungs, and Distance
	// recomputes the same geo.Dist expression on demand.
	finalized bool
}

// N reports the number of edge servers; M the number of users.
func (t *Topology) N() int { return len(t.Servers) }
func (t *Topology) M() int { return len(t.Users) }

// Finalized reports whether Finalize has validated this topology.
func (t *Topology) Finalized() bool { return t.finalized }

// Distance reports the server-user distance d(v_i, u_j) — the quantity
// channel gains are computed from (both the serving link g_{i,x,j} and
// the interference terms g_{i,x,t} of Eq. 2 need arbitrary server×user
// pairs). It is a pure function of the two positions, so computing it
// on demand is bit-identical to reading the dense matrix earlier
// revisions stored.
func (t *Topology) Distance(i, j int) units.Meters {
	return geo.Dist(t.Servers[i].Pos, t.Users[j].Pos)
}

// MaxRadius reports the largest server coverage radius (0 when there
// are no servers) — the reach bound sparse gain layouts derive their
// interference cutoff from.
func (t *Topology) MaxRadius() units.Meters {
	var rmax units.Meters
	for _, sv := range t.Servers {
		if sv.Radius > rmax {
			rmax = sv.Radius
		}
	}
	return rmax
}

// Finalize computes the derived state (coverage sets, path costs) and
// validates the layout. It must be called after any structural
// mutation.
func (t *Topology) Finalize() error {
	t.finalized = false
	if t.Net == nil {
		return errors.New("topology: nil network graph")
	}
	if t.Net.N() != len(t.Servers) {
		return fmt.Errorf("topology: network has %d vertices for %d servers", t.Net.N(), len(t.Servers))
	}
	if t.CloudRate <= 0 {
		return errors.New("topology: non-positive cloud rate")
	}
	for i, sv := range t.Servers {
		if sv.ID != i {
			return fmt.Errorf("topology: server %d has id %d", i, sv.ID)
		}
		if sv.Channels <= 0 {
			return fmt.Errorf("topology: server %d has %d channels", i, sv.Channels)
		}
		if sv.Bandwidth <= 0 || sv.Radius <= 0 {
			return fmt.Errorf("topology: server %d has non-positive bandwidth or radius", i)
		}
	}
	for j, u := range t.Users {
		if u.ID != j {
			return fmt.Errorf("topology: user %d has id %d", j, u.ID)
		}
		if u.Power <= 0 || u.MaxRate <= 0 {
			return fmt.Errorf("topology: user %d has non-positive power or max rate", j)
		}
	}

	// Coverage via the spatial hash: O(N·query) instead of the O(N·M)
	// scan. Each server asks the grid for the users inside its radius;
	// the inclusive boundary (≤ r) matches Covers and the old dense
	// scan. Covered lists are sorted ascending (Grid.Within order is
	// unspecified) and Coverage lists inherit ascending server order
	// from the outer loop.
	n, m := t.N(), t.M()
	t.Coverage = make([][]int, m)
	t.Covered = make([][]int, n)
	if m > 0 {
		cell := float64(t.MaxRadius())
		if cell <= 0 {
			cell = 1
		}
		grid := geo.NewGrid(cell)
		for j := 0; j < m; j++ {
			grid.Insert(j, t.Users[j].Pos)
		}
		for i := 0; i < n; i++ {
			if t.Servers[i].Failed {
				continue
			}
			// Within compares squared distances; Covers (and the old
			// dense scan) compare the hypot. Query with a hair of
			// margin and re-check with the exact Covers predicate so
			// boundary users land on the same side either way.
			us := grid.Within(t.Servers[i].Pos, t.Servers[i].Radius+1e-6)
			sort.Ints(us)
			kept := us[:0]
			for _, j := range us {
				if float64(t.Distance(i, j)) <= float64(t.Servers[i].Radius) {
					kept = append(kept, j)
				}
			}
			t.Covered[i] = kept
			for _, j := range kept {
				t.Coverage[j] = append(t.Coverage[j], i)
			}
		}
	}

	t.PathCost = t.Net.APSP()
	t.CloudCost = units.PerMB(t.CloudRate)
	if !t.AllowPartition {
		for o := range t.PathCost {
			for i := range t.PathCost[o] {
				if math.IsInf(float64(t.PathCost[o][i]), 1) {
					return fmt.Errorf("topology: servers %d and %d are disconnected", o, i)
				}
			}
		}
	}
	t.finalized = true
	return nil
}

// Covers reports whether server i covers user j (failed servers cover
// nobody).
func (t *Topology) Covers(i, j int) bool {
	if t.Servers[i].Failed {
		return false
	}
	return float64(t.Distance(i, j)) <= float64(t.Servers[i].Radius)
}

// TotalChannels reports Σ_i |C_i|, the system's channel inventory.
func (t *Topology) TotalChannels() int {
	total := 0
	for _, sv := range t.Servers {
		total += sv.Channels
	}
	return total
}

// jsonTopology is the wire format: the graph becomes an edge list.
type jsonTopology struct {
	Region    geo.Rect   `json:"region"`
	Servers   []Server   `json:"servers"`
	Users     []User     `json:"users"`
	CloudRate units.Rate `json:"cloudRate"`
	Links     []jsonLink `json:"links"`
}

type jsonLink struct {
	U int `json:"u"`
	V int `json:"v"`
	// SpeedMBps is the link speed; stored as speed (not cost) for
	// human-editable files.
	SpeedMBps float64 `json:"speedMBps"`
}

// MarshalJSON encodes the topology including its link list.
func (t *Topology) MarshalJSON() ([]byte, error) {
	jt := jsonTopology{
		Region:    t.Region,
		Servers:   t.Servers,
		Users:     t.Users,
		CloudRate: t.CloudRate,
	}
	if t.Net != nil {
		for _, e := range t.Net.Edges() {
			jt.Links = append(jt.Links, jsonLink{U: e.U, V: e.V, SpeedMBps: 1 / float64(e.Cost)})
		}
	}
	return json.Marshal(jt)
}

// UnmarshalJSON decodes a topology and finalizes it.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var jt jsonTopology
	if err := json.Unmarshal(data, &jt); err != nil {
		return err
	}
	t.Region = jt.Region
	t.Servers = jt.Servers
	t.Users = jt.Users
	t.CloudRate = jt.CloudRate
	t.Net = graph.New(len(jt.Servers))
	for _, l := range jt.Links {
		t.Net.AddEdge(l.U, l.V, units.PerMB(units.Rate(l.SpeedMBps)))
	}
	return t.Finalize()
}

// Save writes the topology as JSON.
func (t *Topology) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
