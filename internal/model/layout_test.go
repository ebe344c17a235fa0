package model

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"idde/internal/geo"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/workload"
)

// twoStepNew is the reference construction New replaced: build the
// full CSR layout, then throw it away for the dense one when the rows
// would not be smaller.
func twoStepNew(top *topology.Topology, wl *workload.Workload, rm radio.Model) (*Instance, error) {
	in, err := NewSparse(top, wl, rm, 0)
	if err != nil {
		return nil, err
	}
	if 12*in.NNZ() >= 8*int64(top.N())*int64(top.M()) {
		return in.Densified(), nil
	}
	return in, nil
}

// scaledPieces generates an n×m topology over the Table 2 region
// widened by scale per axis, plus a workload over it.
func scaledPieces(t *testing.T, n, m int, scale float64, seed uint64) (*topology.Topology, *workload.Workload) {
	t.Helper()
	s := rng.New(seed)
	cfg := topology.DefaultGen(n, m, 1.2)
	cfg.Region.MaxX = cfg.Region.MinX + cfg.Region.Width()*scale
	cfg.Region.MaxY = cfg.Region.MinY + cfg.Region.Height()*scale
	top, err := topology.Generate(cfg, s.Split("top"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(workload.DefaultGen(3), n, m, s.Split("wl"))
	if err != nil {
		t.Fatal(err)
	}
	return top, wl
}

// TestNewMatchesTwoStepLayout pins New's count-first construction to
// the two-step one: the same layout choice, NNZ and LayoutStats, the
// same CSR rows when sparse, and every GainAt bit for bit. The cases
// cover compact Table 2-scale regions, region-scaled ones, a fine
// RegionScale sweep that crosses the 12:8 boundary and an instance
// exactly on it, at GOMAXPROCS 1 and 4.
func TestNewMatchesTwoStepLayout(t *testing.T) {
	type piece struct {
		name  string
		build func() (*topology.Topology, *workload.Workload)
	}
	scaled := func(name string, n, m int, sc float64, seed uint64) piece {
		return piece{name, func() (*topology.Topology, *workload.Workload) { return scaledPieces(t, n, m, sc, seed) }}
	}
	cases := []piece{
		scaled("compact", 20, 150, 1, 3),
		scaled("compact-small", 3, 12, 1, 5),
		scaled("compact-large", 40, 600, 1, 11),
		scaled("scaled-4x", 60, 900, 4, 41),
		scaled("scaled-8x", 80, 1200, 8, 43),
		// Two of three users within the 1200 m cutoff: 12·2 = 8·1·3,
		// on the boundary, where New densifies.
		{"boundary", func() (*topology.Topology, *workload.Workload) {
			return rawInstance(t,
				[]topology.Server{{ID: 0, Pos: geo.Point{}, Radius: 400, Channels: 2, Bandwidth: 200}},
				[]topology.User{
					{ID: 0, Pos: geo.Point{X: 100}, Power: 2, MaxRate: 200},
					{ID: 1, Pos: geo.Point{X: 200}, Power: 2, MaxRate: 200},
					{ID: 2, Pos: geo.Point{X: 5000}, Power: 2, MaxRate: 200},
				})
		}},
	}
	// In this sweep the rows fill the whole map up to a scale of 1.225
	// and hold about two thirds of it (the 12:8 break-even) at 1.23.
	var sweep []string
	for k := 0; k <= 20; k++ {
		sc := 1.2 + 0.005*float64(k)
		sweep = append(sweep, fmt.Sprintf("sweep-%.3f", sc))
		cases = append(cases, scaled(sweep[k], 24, 300, sc, 7))
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	sparse := map[string]bool{}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			top, wl := c.build()
			got, err := New(top, wl, radio.Default())
			if err != nil {
				t.Fatal(err)
			}
			want, err := twoStepNew(top, wl, radio.Default())
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s at GOMAXPROCS=%d", c.name, procs)
			if got.Sparse() != want.Sparse() || got.NNZ() != want.NNZ() {
				t.Fatalf("%s: sparse=%v nnz=%d, two-step sparse=%v nnz=%d", where, got.Sparse(), got.NNZ(), want.Sparse(), want.NNZ())
			}
			if gs, ws := got.LayoutStats(), want.LayoutStats(); gs != ws {
				t.Fatalf("%s: LayoutStats %+v, two-step %+v", where, gs, ws)
			}
			for i := 0; i < got.N(); i++ {
				gr, wr := got.GainRow(i), want.GainRow(i)
				if !reflect.DeepEqual(gr.cols, wr.cols) || !reflect.DeepEqual(gr.vals, wr.vals) {
					t.Fatalf("%s: CSR row %d differs", where, i)
				}
				for j := 0; j < got.M(); j++ {
					if g, w := math.Float64bits(got.GainAt(i, j)), math.Float64bits(want.GainAt(i, j)); g != w {
						t.Fatalf("%s: GainAt(%d, %d) = %x, two-step %x", where, i, j, g, w)
					}
				}
			}
			sparse[c.name] = got.Sparse()
		}
	}
	if sparse["boundary"] {
		t.Fatal("the instance on the 12:8 boundary kept the CSR layout")
	}
	if sparse[sweep[0]] || !sparse[sweep[len(sweep)-1]] {
		t.Fatalf("the RegionScale sweep does not cross the 12:8 boundary: %s sparse=%v, %s sparse=%v",
			sweep[0], sparse[sweep[0]], sweep[len(sweep)-1], sparse[sweep[len(sweep)-1]])
	}
}
