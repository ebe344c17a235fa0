// Package shard partitions an IDDE instance into coverage-connected
// spatial tiles and solves both phases per tile — Phase 1 dirty-set
// best-response and Phase 2 CELF on each tile's own worker, ledger,
// aggregate rows and tracer shard — followed by a bounded deterministic
// halo-exchange stage that re-equilibrates cross-tile interference and
// a final global CELF reconcile pass for boundary replicas.
//
// The decomposition is sound because interference is spatially local:
// user j's Eq. 12 benefit depends only on the occupants of channels of
// servers in V_j (its coverage set), so users whose whole interference
// neighbourhood lives inside one tile are untouched by other tiles'
// moves. Users and servers near tile boundaries are not independent —
// they are exactly the frontier/halo sets the exchange stage sweeps.
//
// Determinism contract: the partition is a pure function of the
// topology and the tile count (no map iteration, no scheduling
// dependence); tile solves write disjoint state and merge in tile
// order; the halo sweeps run in fixed tile order; and every candidate
// enumeration is ascending. A single-tile sharded solve is bit-identical
// to the global solver, and multi-tile results are independent of
// GOMAXPROCS and the worker cap (pinned by shard_differential_test.go
// at the repo root).
package shard

import (
	"sort"

	"idde/internal/geo"
	"idde/internal/model"
	"idde/internal/units"
)

// Tile is one partition cell: a set of servers plus the users it owns.
type Tile struct {
	ID int
	// Servers lists the tile's server ids, ascending. Tiles partition
	// the server set.
	Servers []int
	// Users lists the user ids owned by the tile, ascending. A user is
	// owned by the tile of its nearest covering server (ties by server
	// id); users covered by nobody fall to tile 0 — they can never move
	// in Phase 1 and request latencies independent of ownership.
	Users []int
}

// Partition is a deterministic tiling of an instance.
type Partition struct {
	Tiles []Tile
	// ServerTile[i] is the tile owning server i.
	ServerTile []int32
	// Owner[j] is the tile owning user j.
	Owner []int32
	// Frontier[i] reports whether server i's footprint crosses the
	// tiling: it covers at least one user owned by another tile.
	Frontier []bool
	// Halo lists, ascending, every user covered by a frontier server —
	// the users whose interference neighbourhood straddles a boundary.
	Halo []int
}

// NumFrontier counts frontier servers.
func (p *Partition) NumFrontier() int {
	n := 0
	for _, f := range p.Frontier {
		if f {
			n++
		}
	}
	return n
}

// MakePartition tiles the instance into (at most) the requested number
// of tiles. Servers whose coverage disks overlap are grouped into
// connected components via the geo spatial hash; components are then
// deterministically merged (smallest first) or split (heaviest first by
// owned-user count, at the owned-user weighted median of the longer
// bounding-box axis — a coordinate-median cut leaves ~2× user imbalance
// on clustered layouts) until the target count is reached. Requesting
// more tiles than servers yields one tile per server.
func MakePartition(in *model.Instance, tiles int) *Partition {
	n := in.N()
	if tiles < 1 {
		tiles = 1
	}
	if tiles > n {
		tiles = n
	}

	// Ownership is decided before tiling: a user belongs to its nearest
	// covering server (ties by lowest id), a pure function of the
	// topology. The per-server owned-user counts are the weights the
	// split balancing works with.
	ownerServer := nearestCoveringServers(in)
	weight := make([]int, n)
	for _, s := range ownerServer {
		if s >= 0 {
			weight[s]++
		}
	}

	comps := coverageComponents(in)
	comps = adjustComponents(in, comps, tiles, weight)

	// Canonical tile order: ascending minimum server id. Each
	// component's server list is sorted ascending.
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })

	p := &Partition{
		Tiles:      make([]Tile, len(comps)),
		ServerTile: make([]int32, n),
		Owner:      make([]int32, in.M()),
		Frontier:   make([]bool, n),
	}
	for t, servers := range comps {
		p.Tiles[t] = Tile{ID: t, Servers: servers}
		for _, i := range servers {
			p.ServerTile[i] = int32(t)
		}
	}

	// Ownership: nearest covering server, ties by server id (computed
	// above). Users covered by nobody fall to tile 0.
	top := in.Top
	for j := 0; j < in.M(); j++ {
		if s := ownerServer[j]; s >= 0 {
			p.Owner[j] = p.ServerTile[s]
		} else {
			p.Owner[j] = 0
		}
	}
	for j := 0; j < in.M(); j++ {
		t := p.Owner[j]
		p.Tiles[t].Users = append(p.Tiles[t].Users, j)
	}

	// Frontier servers and the halo they induce.
	for i := 0; i < n; i++ {
		ti := p.ServerTile[i]
		for _, j := range top.Covered[i] {
			if p.Owner[j] != ti {
				p.Frontier[i] = true
				break
			}
		}
	}
	if len(p.Tiles) > 1 {
		inHalo := make([]bool, in.M())
		for i := 0; i < n; i++ {
			if !p.Frontier[i] {
				continue
			}
			for _, j := range top.Covered[i] {
				inHalo[j] = true
			}
		}
		for j, h := range inHalo {
			if h {
				p.Halo = append(p.Halo, j)
			}
		}
	}
	return p
}

// nearestCoveringServers maps every user to its nearest covering server
// (ties by lowest server id, matching the ascending Coverage order with
// a strict < comparison), or −1 for users covered by nobody. The rule is
// a pure function of the topology, so ownership — and with it the whole
// partition — is deterministic.
func nearestCoveringServers(in *model.Instance) []int32 {
	top := in.Top
	owner := make([]int32, in.M())
	for j := 0; j < in.M(); j++ {
		cov := top.Coverage[j]
		if len(cov) == 0 {
			owner[j] = -1
			continue
		}
		best := cov[0]
		for _, i := range cov[1:] {
			if top.Distance(i, j) < top.Distance(best, j) {
				best = i
			}
		}
		owner[j] = int32(best)
	}
	return owner
}

// coverageComponents unions servers whose coverage disks overlap
// (center distance ≤ r_a + r_b) into connected components, using the
// spatial hash for the neighbour queries. Returned components hold
// ascending server ids and are themselves ordered by minimum id.
func coverageComponents(in *model.Instance) [][]int {
	top := in.Top
	n := in.N()
	var rmax float64
	for i := 0; i < n; i++ {
		if r := float64(top.Servers[i].Radius); r > rmax {
			rmax = r
		}
	}
	cell := rmax
	if cell <= 0 {
		cell = 1
	}
	grid := geo.NewGrid(cell)
	for i := 0; i < n; i++ {
		grid.Insert(i, top.Servers[i].Pos)
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // lower root wins: canonical representatives
		}
	}
	for i := 0; i < n; i++ {
		near := grid.Within(top.Servers[i].Pos, top.Servers[i].Radius+units.Meters(rmax))
		sort.Ints(near) // Grid.Within order is unspecified
		for _, o := range near {
			if o <= i {
				continue
			}
			if geo.Dist(top.Servers[i].Pos, top.Servers[o].Pos) <= top.Servers[i].Radius+top.Servers[o].Radius {
				union(i, o)
			}
		}
	}

	members := make(map[int][]int, n)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if len(members[r]) == 0 {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	sort.Ints(roots)
	comps := make([][]int, 0, len(roots))
	for _, r := range roots {
		comps = append(comps, members[r]) // ascending: appended in id order
	}
	return comps
}

// adjustComponents merges or splits components to hit the target count.
// Merging folds the smallest component (ties by min id) into the next
// smallest; splitting cuts the heaviest component — by total owned-user
// weight, ties by server count then min id — at the weighted median of
// its longer bounding-box axis. Both loops are deterministic.
func adjustComponents(in *model.Instance, comps [][]int, target int, weight []int) [][]int {
	for len(comps) > target {
		sortComps(comps)
		merged := append(append([]int(nil), comps[0]...), comps[1]...)
		sort.Ints(merged)
		comps = append([][]int{merged}, comps[2:]...)
	}
	compWeight := func(c []int) int {
		w := 0
		for _, i := range c {
			w += weight[i]
		}
		return w
	}
	for len(comps) < target {
		// Split the heaviest splittable component. Weight is the
		// owned-user count: splitting for server count alone can leave a
		// dense tile holding most of the users (and most of the solve
		// time) while empty tiles idle.
		idx, idxW := -1, -1
		for c := range comps {
			if len(comps[c]) < 2 {
				continue
			}
			w := compWeight(comps[c])
			if idx < 0 || w > idxW ||
				(w == idxW && (len(comps[c]) > len(comps[idx]) ||
					(len(comps[c]) == len(comps[idx]) && comps[c][0] < comps[idx][0]))) {
				idx, idxW = c, w
			}
		}
		if idx < 0 {
			break // nothing splittable: fewer tiles than requested
		}
		a, b := splitComponent(in, comps[idx], weight)
		comps = append(comps[:idx], comps[idx+1:]...)
		comps = append(comps, a, b)
	}
	return comps
}

// sortComps orders components by (size asc, min id asc).
func sortComps(comps [][]int) {
	sort.Slice(comps, func(a, b int) bool {
		if len(comps[a]) != len(comps[b]) {
			return len(comps[a]) < len(comps[b])
		}
		return comps[a][0] < comps[b][0]
	})
}

// splitComponent bisects a component's servers at the owned-user
// weighted median of the longer bounding-box axis: servers are ordered
// by that axis (ties by the other coordinate then by id — a total
// order, so the cut is unique) and the cut falls after the first prefix
// holding at least half the component's owned users, clamped so both
// halves are non-empty. With uniform weights this degenerates to the
// old coordinate-median bisection.
func splitComponent(in *model.Instance, servers []int, weight []int) (a, b []int) {
	top := in.Top
	minX, maxX := top.Servers[servers[0]].Pos.X, top.Servers[servers[0]].Pos.X
	minY, maxY := top.Servers[servers[0]].Pos.Y, top.Servers[servers[0]].Pos.Y
	for _, i := range servers[1:] {
		p := top.Servers[i].Pos
		minX, maxX = minf(minX, p.X), maxf(maxX, p.X)
		minY, maxY = minf(minY, p.Y), maxf(maxY, p.Y)
	}
	byX := maxX-minX >= maxY-minY
	order := append([]int(nil), servers...)
	sort.Slice(order, func(u, v int) bool {
		pu, pv := top.Servers[order[u]].Pos, top.Servers[order[v]].Pos
		ku, kv := pu.X, pv.X
		su, sv := pu.Y, pv.Y
		if !byX {
			ku, kv, su, sv = pu.Y, pv.Y, pu.X, pv.X
		}
		if ku != kv {
			return ku < kv
		}
		if su != sv {
			return su < sv
		}
		return order[u] < order[v]
	})
	total := 0
	for _, i := range order {
		total += weight[i]
	}
	cut := (len(order) + 1) / 2 // unweighted bisection when no users are owned
	if total > 0 {
		cum := 0
		for c, i := range order {
			cum += weight[i]
			if 2*cum >= total {
				cut = c + 1
				break
			}
		}
	}
	if cut < 1 {
		cut = 1
	}
	if cut > len(order)-1 {
		cut = len(order) - 1
	}
	a = append([]int(nil), order[:cut]...)
	b = append([]int(nil), order[cut:]...)
	sort.Ints(a)
	sort.Ints(b)
	return a, b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
