package model

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"idde/internal/geo"
	"idde/internal/graph"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

// Edge-case coverage for the CSR gain layout: cutoff validation, users
// covered by nobody, duplicate positions, build determinism across
// GOMAXPROCS, and the automatic sparse/dense layout choice.

// rawInstance finalizes a hand-built topology + single-item workload.
func rawInstance(t *testing.T, servers []topology.Server, users []topology.User) (*topology.Topology, *workload.Workload) {
	t.Helper()
	top := &topology.Topology{
		Region:    geo.Rect{MinX: -10000, MinY: -10000, MaxX: 10000, MaxY: 10000},
		Servers:   servers,
		Users:     users,
		Net:       graph.New(len(servers)),
		CloudRate: 600,
	}
	for i := 1; i < len(servers); i++ {
		top.Net.AddEdge(i-1, i, units.PerMB(3000))
	}
	if err := top.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	reqs := make([][]int, len(users))
	for j := range reqs {
		reqs[j] = []int{0}
	}
	caps := make([]units.MegaBytes, len(servers))
	for i := range caps {
		caps[i] = 100
	}
	wl := &workload.Workload{
		Items:    []workload.Item{{ID: 0, Size: 30}},
		Requests: reqs,
		Capacity: caps,
	}
	return top, wl
}

func TestNewSparseRejectsCutoffBelowCoverageRadius(t *testing.T) {
	in := tinyInstance(t) // max radius 500
	if _, err := NewSparse(in.Top, in.Wl, in.Radio, 499); err == nil {
		t.Fatal("cutoff below the largest coverage radius was accepted")
	}
	// The bare coverage radius is the tightest legal cutoff.
	sp, err := NewSparse(in.Top, in.Wl, in.Radio, 500)
	if err != nil {
		t.Fatalf("cutoff = max radius rejected: %v", err)
	}
	if !sp.Sparse() || sp.cutoff != 500 {
		t.Fatalf("unexpected layout: sparse=%v cutoff=%v", sp.Sparse(), sp.cutoff)
	}
}

// newDense builds an instance with the dense N×M reference layout
// directly, without first building the CSR rows Densified starts from.
func newDense(top *topology.Topology, wl *workload.Workload, rm radio.Model) (*Instance, error) {
	if err := validateInstance(top, wl); err != nil {
		return nil, err
	}
	in := &Instance{Top: top, Wl: wl, Radio: rm}
	in.dense = denseGains(top, rm)
	return in, nil
}

func TestSparseUncoveredUserStillReadable(t *testing.T) {
	// u1 sits outside every coverage disk AND outside the cutoff disk:
	// it appears in no CSR row, but reads toward it must still match the
	// dense reference via the recompute fallback.
	top, wl := rawInstance(t,
		[]topology.Server{{ID: 0, Pos: geo.Point{X: 0, Y: 0}, Radius: 400, Channels: 2, Bandwidth: 200}},
		[]topology.User{
			{ID: 0, Pos: geo.Point{X: 100, Y: 0}, Power: 2, MaxRate: 200},
			{ID: 1, Pos: geo.Point{X: 5000, Y: 0}, Power: 2, MaxRate: 200},
		})
	if len(top.Coverage[1]) != 0 {
		t.Fatalf("u1 unexpectedly covered: %v", top.Coverage[1])
	}
	sp, err := NewSparse(top, wl, radio.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sp.GainRow(0).cols); got != 1 {
		t.Fatalf("row support = %d, want 1 (only the covered user)", got)
	}
	dense, err := newDense(top, wl, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if sp.GainAt(0, j) != dense.GainAt(0, j) {
			t.Fatalf("GainAt(0,%d): sparse %v, dense %v", j, sp.GainAt(0, j), dense.GainAt(0, j))
		}
	}
}

func TestSparseDuplicatePositions(t *testing.T) {
	// Two users on the same point, one of them exactly on the server:
	// both must be stored, with identical gains for the co-located pair
	// and the RefDist clamp for the zero-distance one.
	top, wl := rawInstance(t,
		[]topology.Server{{ID: 0, Pos: geo.Point{X: 0, Y: 0}, Radius: 400, Channels: 2, Bandwidth: 200}},
		[]topology.User{
			{ID: 0, Pos: geo.Point{X: 50, Y: 50}, Power: 2, MaxRate: 200},
			{ID: 1, Pos: geo.Point{X: 50, Y: 50}, Power: 3, MaxRate: 200},
			{ID: 2, Pos: geo.Point{X: 0, Y: 0}, Power: 4, MaxRate: 200},
		})
	sp, err := NewSparse(top, wl, radio.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	row := sp.GainRow(0)
	cols, vals := row.cols, row.vals
	if !reflect.DeepEqual(cols, []int32{0, 1, 2}) {
		t.Fatalf("support = %v, want [0 1 2]", cols)
	}
	if vals[0] != vals[1] {
		t.Fatalf("co-located users got different gains: %v vs %v", vals[0], vals[1])
	}
	rm := radio.Default()
	if want := rm.Gain(0); vals[2] != want {
		t.Fatalf("zero-distance gain = %v, want RefDist-clamped %v", vals[2], want)
	}
}

func TestSparseBuildDeterministicAcrossGomaxprocs(t *testing.T) {
	in := genInstance(t, 20, 150, 5, 7)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	type rowdump struct {
		Cols []int32
		Vals []float64
	}
	build := func(procs int) []rowdump {
		runtime.GOMAXPROCS(procs)
		sp, err := NewSparse(in.Top, in.Wl, in.Radio, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]rowdump, sp.N())
		for i := range out {
			row := sp.GainRow(i)
			out[i] = rowdump{Cols: row.cols, Vals: row.vals}
		}
		return out
	}
	base := build(1)
	for _, procs := range []int{2, 8} {
		if got := build(procs); !reflect.DeepEqual(got, base) {
			t.Fatalf("CSR rows differ between GOMAXPROCS=1 and %d", procs)
		}
	}
}

func TestNewPicksSmallerLayout(t *testing.T) {
	// Compact Table 2 region: the cutoff disk spans most of the map, the
	// rows are near-dense, New must densify.
	in := genInstance(t, 20, 150, 5, 3)
	if in.Sparse() {
		st := in.LayoutStats()
		t.Fatalf("compact instance kept the CSR layout (density %.2f)", st.Density)
	}

	// Spread the same density over a 4×-per-axis region: rows thin out
	// and New must keep the CSR layout, with a real memory win.
	s := rng.New(41)
	cfg := topology.DefaultGen(20*16, 150*16, 1.0)
	cfg.Region.MaxX = cfg.Region.MinX + cfg.Region.Width()*4
	cfg.Region.MaxY = cfg.Region.MinY + cfg.Region.Height()*4
	top, err := topology.Generate(cfg, s.Split("top"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(workload.DefaultGen(5), top.N(), top.M(), s.Split("wl"))
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(top, wl, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !big.Sparse() {
		t.Fatal("region-scaled instance was densified")
	}
	st := big.LayoutStats()
	if st.Bytes*2 >= 8*int64(big.N())*int64(big.M()) {
		t.Fatalf("CSR layout not at least 2× under the dense matrix: %d bytes, density %.3f", st.Bytes, st.Density)
	}
}

// FuzzGainAtMatchesDense pins the sparse layout's exactness: on fuzzed
// instances and any legal cutoff in [MaxRadius, 3·MaxRadius], GainAt
// and GainRow(i).At(j) on NewSparse must return, for every (i, j), the
// dense reference's value bit for bit — stored row values inside the
// cutoff and the recomputed fallback outside it alike.
func FuzzGainAtMatchesDense(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0))
	f.Add(uint64(2022), uint8(10), uint8(90), uint16(0xffff))
	f.Add(uint64(7331), uint8(5), uint8(40), uint16(0x8000))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint8, cut uint16) {
		s := rng.New(seed)
		top, err := topology.Generate(topology.DefaultGen(2+int(n)%14, 5+int(m)%120, 1.2), s.Split("top"))
		if err != nil {
			t.Fatalf("topology: %v", err)
		}
		wl, err := workload.Generate(workload.DefaultGen(2), top.N(), top.M(), s.Split("wl"))
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		rmax := top.MaxRadius()
		cutoff := min(rmax+2*rmax*units.Meters(cut)/0xffff, 3*rmax)
		sp, err := NewSparse(top, wl, radio.Default(), cutoff)
		if err != nil {
			t.Fatalf("NewSparse(cutoff %v, rmax %v): %v", cutoff, rmax, err)
		}
		dense := sp.Densified()
		for i := 0; i < sp.N(); i++ {
			row := sp.GainRow(i)
			for j := 0; j < sp.M(); j++ {
				want := math.Float64bits(dense.GainAt(i, j))
				if got := math.Float64bits(sp.GainAt(i, j)); got != want {
					t.Fatalf("cutoff %v: GainAt(%d, %d) = %x, dense %x", cutoff, i, j, got, want)
				}
				if got := math.Float64bits(row.At(j)); got != want {
					t.Fatalf("cutoff %v: GainRow(%d).At(%d) = %x, dense %x", cutoff, i, j, got, want)
				}
			}
		}
	})
}
