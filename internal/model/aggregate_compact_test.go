package model

import (
	"math"
	"testing"

	"idde/internal/geo"
	"idde/internal/graph"
	"idde/internal/radio"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

// twoClusterInstance builds a 4-server topology split into two radio
// clusters far apart: servers {0,1} cover users {0,1} and servers {2,3}
// cover users {2,3}. No server pair across the clusters ever co-covers
// a user, so the compact aggregate rows must not allocate cells for the
// cross-cluster sources.
func twoClusterInstance(t *testing.T) *Instance {
	t.Helper()
	top := &topology.Topology{
		Region: geo.Rect{MinX: -100, MinY: -100, MaxX: 6000, MaxY: 100},
		Servers: []topology.Server{
			{ID: 0, Pos: geo.Point{X: 0, Y: 0}, Radius: 500, Channels: 2, Bandwidth: 200},
			{ID: 1, Pos: geo.Point{X: 300, Y: 0}, Radius: 500, Channels: 3, Bandwidth: 200},
			{ID: 2, Pos: geo.Point{X: 5000, Y: 0}, Radius: 500, Channels: 2, Bandwidth: 200},
			{ID: 3, Pos: geo.Point{X: 5300, Y: 0}, Radius: 500, Channels: 2, Bandwidth: 200},
		},
		Users: []topology.User{
			{ID: 0, Pos: geo.Point{X: 100, Y: 0}, Power: 2, MaxRate: 200},
			{ID: 1, Pos: geo.Point{X: 200, Y: 0}, Power: 3, MaxRate: 200},
			{ID: 2, Pos: geo.Point{X: 5100, Y: 0}, Power: 4, MaxRate: 200},
			{ID: 3, Pos: geo.Point{X: 5200, Y: 0}, Power: 2, MaxRate: 200},
		},
		Net:       graph.New(4),
		CloudRate: 600,
	}
	top.Net.AddEdge(0, 1, units.PerMB(3000))
	top.Net.AddEdge(1, 2, units.PerMB(1000))
	top.Net.AddEdge(2, 3, units.PerMB(3000))
	if err := top.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	wl := &workload.Workload{
		Items:    []workload.Item{{ID: 0, Size: 30}, {ID: 1, Size: 90}},
		Requests: [][]int{{0}, {0, 1}, {1}, {0}},
		Capacity: []units.MegaBytes{100, 100, 100, 100},
	}
	in, err := New(top, wl, radio.Default())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

// TestAggregateRowsSkipOffCoverageSources is the satellite regression
// test: a materialized receiver row must span only the channel blocks
// of co-covering sources — cross-cluster cells are never allocated —
// and un-probed receivers must stay nil (lazy).
func TestAggregateRowsSkipOffCoverageSources(t *testing.T) {
	in := twoClusterInstance(t)
	l := NewLedger(in, NewAllocation(in.M()))
	// Occupy channels in both clusters.
	l.Move(0, Alloc{Server: 0, Channel: 0})
	l.Move(1, Alloc{Server: 1, Channel: 0})
	l.Move(2, Alloc{Server: 2, Channel: 0})
	l.Move(3, Alloc{Server: 3, Channel: 0})

	// Probe receiver 0 only: its row materializes, others stay nil.
	l.interCellOf(0, Alloc{Server: 0, Channel: 1})
	d := l.agg[0]
	if d == nil {
		t.Fatal("probed receiver row not materialized")
	}
	for i := 1; i < in.N(); i++ {
		if l.agg[i] != nil {
			t.Fatalf("un-probed receiver %d materialized a row", i)
		}
	}
	// Receiver 0 co-covers with servers {0,1} only.
	if d.srcOff[0] < 0 || d.srcOff[1] < 0 {
		t.Fatalf("co-covering sources missing from row: %v", d.srcOff)
	}
	if d.srcOff[2] >= 0 || d.srcOff[3] >= 0 {
		t.Fatalf("off-coverage sources materialized cells: %v", d.srcOff)
	}
	wantWidth := in.Top.Servers[0].Channels + in.Top.Servers[1].Channels
	if len(d.vals) != wantWidth {
		t.Fatalf("row width %d, want %d (co-covering channels only)", len(d.vals), wantWidth)
	}

	// The compact rows must still answer every covered hypothetical
	// identically to the naive walk, and Moves must keep them current.
	ref := NewLedger(in, l.Alloc())
	ref.SetNaiveInterference(true)
	check := func() {
		t.Helper()
		for j := 0; j < in.M(); j++ {
			for _, i := range in.Top.Coverage[j] {
				for x := 0; x < in.Top.Servers[i].Channels; x++ {
					a := Alloc{Server: i, Channel: x}
					fa, fr := float64(l.interCellOf(j, a)), float64(ref.interCellOf(j, a))
					if math.Abs(fa-fr) > 1e-9*math.Max(1e-30, fr) {
						t.Fatalf("interCell(%d,%v): compact %g != naive %g", j, a, fa, fr)
					}
				}
			}
		}
	}
	check()
	l.Move(1, Alloc{Server: 0, Channel: 0})
	ref.Move(1, Alloc{Server: 0, Channel: 0})
	check()

	// Off-coverage hypotheticals (receiver in the other cluster) go
	// through the single-cell fallback and must still match the naive
	// walk bit-for-bit — the fallback IS the naive per-cell sum.
	for _, a := range []Alloc{{Server: 2, Channel: 0}, {Server: 3, Channel: 1}} {
		fa, fr := float64(l.interCellOf(0, a)), float64(ref.interCellOf(0, a))
		if fa != fr {
			t.Fatalf("off-coverage interCell(0,%v): fallback %g != naive %g", a, fa, fr)
		}
	}
}
