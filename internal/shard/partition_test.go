package shard

import (
	"reflect"
	"testing"

	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/workload"
)

// params mirrors experiment.Params; the experiment package cannot be
// imported here (it pulls in core, which imports this package).
type params struct {
	N, M, K int
}

func buildInstance(t *testing.T, p params, seed uint64) *model.Instance {
	t.Helper()
	return buildInstanceDensity(t, p, 1.0, seed)
}

// buildInstanceDensity is buildInstance with the wired-link density of
// the generated topology set explicitly.
func buildInstanceDensity(t *testing.T, p params, density float64, seed uint64) *model.Instance {
	t.Helper()
	s := rng.New(seed)
	top, err := topology.Generate(topology.DefaultGen(p.N, p.M, density), s.Split("topology"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(workload.DefaultGen(p.K), p.N, p.M, s.Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestMakePartitionInvariants checks the structural contract for a range
// of tile counts (see checkPartition).
func TestMakePartitionInvariants(t *testing.T) {
	in := buildInstance(t, params{N: 25, M: 260, K: 5}, 21)
	for _, tiles := range []int{1, 2, 3, 4, 7, 8, 16, 25, 40} {
		checkPartition(t, in, MakePartition(in, tiles), tiles)
	}
}

// checkPartition checks p, the partition of in for the requested tile
// count, against the structural contract: servers and users are each
// partitioned exactly once, tiles are ordered by minimum server id with
// ascending member lists, ownership points at a covering server's tile
// (or tile 0 when nobody covers the user), and the frontier/halo sets
// match their definitions.
func checkPartition(t *testing.T, in *model.Instance, p *Partition, tiles int) {
	t.Helper()
	want := min(max(tiles, 1), in.N())
	if len(p.Tiles) != want {
		t.Fatalf("tiles=%d: got %d tiles, want %d", tiles, len(p.Tiles), want)
	}

	seenServer := make([]bool, in.N())
	seenUser := make([]bool, in.M())
	prevMin := -1
	for ti, tile := range p.Tiles {
		if tile.ID != ti {
			t.Fatalf("tiles=%d: tile %d has ID %d", tiles, ti, tile.ID)
		}
		if len(tile.Servers) == 0 {
			t.Fatalf("tiles=%d: tile %d has no servers", tiles, ti)
		}
		if tile.Servers[0] <= prevMin {
			t.Fatalf("tiles=%d: tiles not ordered by min server id", tiles)
		}
		prevMin = tile.Servers[0]
		last := -1
		for _, i := range tile.Servers {
			if i <= last {
				t.Fatalf("tiles=%d: tile %d servers not ascending", tiles, ti)
			}
			last = i
			if seenServer[i] {
				t.Fatalf("tiles=%d: server %d in two tiles", tiles, i)
			}
			seenServer[i] = true
			if p.ServerTile[i] != int32(ti) {
				t.Fatalf("tiles=%d: ServerTile[%d]=%d, want %d", tiles, i, p.ServerTile[i], ti)
			}
		}
		last = -1
		for _, j := range tile.Users {
			if j <= last {
				t.Fatalf("tiles=%d: tile %d users not ascending", tiles, ti)
			}
			last = j
			if seenUser[j] {
				t.Fatalf("tiles=%d: user %d owned twice", tiles, j)
			}
			seenUser[j] = true
			if p.Owner[j] != int32(ti) {
				t.Fatalf("tiles=%d: Owner[%d]=%d, want %d", tiles, j, p.Owner[j], ti)
			}
		}
	}
	for i, s := range seenServer {
		if !s {
			t.Fatalf("tiles=%d: server %d unassigned", tiles, i)
		}
	}
	for j, s := range seenUser {
		if !s {
			t.Fatalf("tiles=%d: user %d unowned", tiles, j)
		}
	}

	// Ownership must sit with a covering server's tile.
	for j := 0; j < in.M(); j++ {
		cov := in.Top.Coverage[j]
		if len(cov) == 0 {
			if p.Owner[j] != 0 {
				t.Fatalf("tiles=%d: uncovered user %d owned by tile %d", tiles, j, p.Owner[j])
			}
			continue
		}
		ok := false
		for _, i := range cov {
			if p.ServerTile[i] == p.Owner[j] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("tiles=%d: user %d owned by tile %d with no covering server", tiles, j, p.Owner[j])
		}
	}

	// Frontier and halo by definition.
	inHalo := make(map[int]bool)
	for i := 0; i < in.N(); i++ {
		frontier := false
		for _, j := range in.Top.Covered[i] {
			if p.Owner[j] != p.ServerTile[i] {
				frontier = true
				break
			}
		}
		if frontier != p.Frontier[i] {
			t.Fatalf("tiles=%d: Frontier[%d]=%v, want %v", tiles, i, p.Frontier[i], frontier)
		}
		if frontier && len(p.Tiles) > 1 {
			for _, j := range in.Top.Covered[i] {
				inHalo[j] = true
			}
		}
	}
	if len(p.Halo) != len(inHalo) {
		t.Fatalf("tiles=%d: halo size %d, want %d", tiles, len(p.Halo), len(inHalo))
	}
	lastHalo := -1
	for _, j := range p.Halo {
		if !inHalo[j] || j <= lastHalo {
			t.Fatalf("tiles=%d: bad halo entry %d", tiles, j)
		}
		lastHalo = j
	}
	if len(p.Tiles) == 1 && (len(p.Halo) != 0 || p.NumFrontier() != 0) {
		t.Fatalf("single tile must have empty frontier and halo")
	}
}

// TestMakePartitionDeterministic: the partition is a pure function of
// the topology and the tile count.
func TestMakePartitionDeterministic(t *testing.T) {
	in := buildInstance(t, params{N: 20, M: 150, K: 6}, 2022)
	for _, tiles := range []int{1, 4, 8} {
		a := MakePartition(in, tiles)
		for r := 0; r < 5; r++ {
			b := MakePartition(in, tiles)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("tiles=%d: partition not deterministic", tiles)
			}
		}
	}
}

// TestMakePartitionNearestOwnership: each user's owner tile is the tile
// of its nearest covering server (ties to the lowest id).
func TestMakePartitionNearestOwnership(t *testing.T) {
	in := buildInstance(t, params{N: 16, M: 120, K: 5}, 7)
	checkNearestOwnership(t, in, MakePartition(in, 4))
}

// checkNearestOwnership checks that every covered user is owned by the
// tile of its nearest covering server (ties to the lowest id).
func checkNearestOwnership(t *testing.T, in *model.Instance, p *Partition) {
	t.Helper()
	for j := 0; j < in.M(); j++ {
		cov := in.Top.Coverage[j]
		if len(cov) == 0 {
			continue
		}
		best := cov[0]
		for _, i := range cov[1:] {
			if in.Top.Distance(i, j) < in.Top.Distance(best, j) {
				best = i
			}
		}
		if p.Owner[j] != p.ServerTile[best] {
			t.Fatalf("user %d owned by tile %d, nearest covering server %d is in tile %d",
				j, p.Owner[j], best, p.ServerTile[best])
		}
	}
}

// FuzzMakePartition runs the partition contract on fuzzed instances:
// seed, size (N servers, M users), wired-link density and requested tile
// count. Each input must satisfy checkPartition, be reproduced exactly
// by a second MakePartition and assign nearest-covering ownership.
func FuzzMakePartition(f *testing.F) {
	f.Add(uint64(21), uint8(25), uint16(260), uint8(0), uint8(7))
	f.Add(uint64(2022), uint8(20), uint16(150), uint8(128), uint8(8))
	f.Add(uint64(7), uint8(16), uint16(120), uint8(255), uint8(4))
	f.Add(uint64(1), uint8(1), uint16(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, m uint16, density, tiles uint8) {
		p := params{N: 1 + int(n)%40, M: int(m) % 400, K: 3}
		in := buildInstanceDensity(t, p, 1+2*float64(density)/255, seed)
		req := int(tiles) % (p.N + 3)
		part := MakePartition(in, req)
		checkPartition(t, in, part, req)
		if again := MakePartition(in, req); !reflect.DeepEqual(part, again) {
			t.Fatalf("tiles=%d: partition not deterministic", req)
		}
		checkNearestOwnership(t, in, part)
	})
}
