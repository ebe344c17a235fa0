package model

import (
	"math"
	"testing"

	"idde/internal/geo"
	"idde/internal/graph"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

// tinyInstance builds a hand-checkable 2-server, 3-user, 2-item
// instance:
//
//	v0 at (0,0) r=500, v1 at (600,0) r=450, link speed 3000 MBps
//	u0 at (100,0)  → covered by v0 only
//	u1 at (500,0)  → covered by both
//	u2 at (700,0)  → covered by v1 only
//	items: d0=30MB, d1=90MB; capacities A_0=100, A_1=30
//	requests: u0→{d0}, u1→{d0,d1}, u2→{d1}
func tinyInstance(t *testing.T) *Instance {
	t.Helper()
	top := &topology.Topology{
		Region: geo.Rect{MinX: -100, MinY: -100, MaxX: 1200, MaxY: 100},
		Servers: []topology.Server{
			{ID: 0, Pos: geo.Point{X: 0, Y: 0}, Radius: 500, Channels: 2, Bandwidth: 200},
			{ID: 1, Pos: geo.Point{X: 600, Y: 0}, Radius: 450, Channels: 2, Bandwidth: 200},
		},
		Users: []topology.User{
			{ID: 0, Pos: geo.Point{X: 100, Y: 0}, Power: 2, MaxRate: 200},
			{ID: 1, Pos: geo.Point{X: 500, Y: 0}, Power: 3, MaxRate: 200},
			{ID: 2, Pos: geo.Point{X: 700, Y: 0}, Power: 4, MaxRate: 200},
		},
		Net:       graph.New(2),
		CloudRate: 600,
	}
	top.Net.AddEdge(0, 1, units.PerMB(3000))
	if err := top.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	wl := &workload.Workload{
		Items:    []workload.Item{{ID: 0, Size: 30}, {ID: 1, Size: 90}},
		Requests: [][]int{{0}, {0, 1}, {1}},
		Capacity: []units.MegaBytes{100, 30},
	}
	in, err := New(top, wl, radio.Default())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

// genInstance builds a generated mid-size instance for property tests.
func genInstance(t testing.TB, n, m, k int, seed uint64) *Instance {
	t.Helper()
	s := rng.New(seed)
	top, err := topology.Generate(topology.DefaultGen(n, m, 1.2), s.Split("top"))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	wl, err := workload.Generate(workload.DefaultGen(k), n, m, s.Split("wl"))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	in, err := New(top, wl, radio.Default())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

func TestNewValidation(t *testing.T) {
	in := tinyInstance(t)
	if in.N() != 2 || in.M() != 3 || in.K() != 2 {
		t.Fatalf("dims %d/%d/%d", in.N(), in.M(), in.K())
	}
	if _, err := New(nil, in.Wl, radio.Default()); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(in.Top, nil, radio.Default()); err == nil {
		t.Error("nil workload accepted")
	}
	bad := &workload.Workload{Items: in.Wl.Items, Requests: in.Wl.Requests, Capacity: nil}
	if _, err := New(in.Top, bad, radio.Default()); err == nil {
		t.Error("mismatched workload accepted")
	}
}

func TestGainMatrix(t *testing.T) {
	in := tinyInstance(t)
	// GainAt(0,0): distance 100, loss 3 → 1e-6.
	if g := in.GainAt(0, 0); math.Abs(g-1e-6) > 1e-15 {
		t.Errorf("GainAt(0,0) = %v", g)
	}
	// Closer server has higher gain for u1 (equidistant? u1 at 500: 500
	// from v0, 100 from v1).
	if in.GainAt(1, 1) <= in.GainAt(0, 1) {
		t.Error("nearer server should have higher gain")
	}
	// The row view agrees with the point reads, in and out of support.
	for i := 0; i < in.N(); i++ {
		r := in.GainRow(i)
		for j := 0; j < in.M(); j++ {
			if r.At(j) != in.GainAt(i, j) {
				t.Errorf("GainRow(%d).At(%d) = %v, GainAt = %v", i, j, r.At(j), in.GainAt(i, j))
			}
		}
	}
}

func TestLatencyHelpers(t *testing.T) {
	in := tinyInstance(t)
	// Cloud: 30MB at 600MBps = 50ms; 90MB = 150ms.
	if l := in.CloudLatency(0); math.Abs(float64(l)-0.05) > 1e-12 {
		t.Errorf("cloud d0 = %v", l)
	}
	if l := in.CloudLatency(1); math.Abs(float64(l)-0.15) > 1e-12 {
		t.Errorf("cloud d1 = %v", l)
	}
	// Edge: 30MB over a 3000MBps hop = 10ms; same server = 0.
	if l := in.EdgeLatency(0, 0, 1); math.Abs(float64(l)-0.01) > 1e-12 {
		t.Errorf("edge d0 v0→v1 = %v", l)
	}
	if l := in.EdgeLatency(1, 1, 1); l != 0 {
		t.Errorf("local delivery latency = %v", l)
	}
}

func TestAllocationBasics(t *testing.T) {
	a := NewAllocation(3)
	if a.AllocatedCount() != 0 {
		t.Error("fresh allocation not empty")
	}
	if Unallocated.Allocated() {
		t.Error("Unallocated reports allocated")
	}
	if Unallocated.String() != "(unallocated)" || (Alloc{Server: 1, Channel: 0}).String() != "(v1,c0)" {
		t.Error("String formats wrong")
	}
	a[0] = Alloc{Server: 0, Channel: 1}
	c := a.Clone()
	c[0] = Unallocated
	if !a[0].Allocated() {
		t.Error("Clone aliases storage")
	}
	if a.AllocatedCount() != 1 {
		t.Error("AllocatedCount wrong")
	}
}

func TestCheckAllocation(t *testing.T) {
	in := tinyInstance(t)
	a := NewAllocation(3)
	if err := in.CheckAllocation(a); err != nil {
		t.Errorf("empty allocation rejected: %v", err)
	}
	a[0] = Alloc{Server: 0, Channel: 0}
	a[1] = Alloc{Server: 1, Channel: 1}
	if err := in.CheckAllocation(a); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
	// u0 is not covered by v1 → Eq. 1 violation.
	a[0] = Alloc{Server: 1, Channel: 0}
	if in.CheckAllocation(a) == nil {
		t.Error("non-covering allocation accepted")
	}
	a[0] = Alloc{Server: 0, Channel: 5}
	if in.CheckAllocation(a) == nil {
		t.Error("bad channel accepted")
	}
	a[0] = Alloc{Server: 9, Channel: 0}
	if in.CheckAllocation(a) == nil {
		t.Error("bad server accepted")
	}
	if in.CheckAllocation(NewAllocation(2)) == nil {
		t.Error("wrong-length allocation accepted")
	}
}

func TestDeliverySemantics(t *testing.T) {
	in := tinyInstance(t)
	d := NewDelivery(2, 2)
	if d.Count() != 0 || d.Placed(0, 0) {
		t.Error("fresh delivery not empty")
	}
	d.Place(0, 0, 30)
	d.Place(0, 1, 60)
	if !d.Placed(0, 0) || d.Placed(1, 0) {
		t.Error("Placed wrong")
	}
	if d.Used(0) != 90 || d.Used(1) != 0 {
		t.Errorf("Used = %v/%v", d.Used(0), d.Used(1))
	}
	c := d.Clone()
	c.Place(1, 0, 30)
	if d.Placed(1, 0) {
		t.Error("Clone aliases storage")
	}
	_ = in
	defer func() {
		if recover() == nil {
			t.Error("double Place did not panic")
		}
	}()
	d.Place(0, 0, 30)
}

func TestCheckDelivery(t *testing.T) {
	in := tinyInstance(t)
	d := NewDelivery(2, 2)
	d.Place(0, 0, 30) // 30 on a 100 MB budget: fine
	if err := in.CheckDelivery(d); err != nil {
		t.Errorf("valid delivery rejected: %v", err)
	}
	// v1 has A=30; the 90MB item must not fit.
	d2 := NewDelivery(2, 2)
	d2.Place(1, 1, 90)
	if in.CheckDelivery(d2) == nil {
		t.Error("over-capacity delivery accepted")
	}
	// Accounting drift: lie about the size.
	d3 := NewDelivery(2, 2)
	d3.Place(0, 0, 10)
	if in.CheckDelivery(d3) == nil {
		t.Error("drifted accounting accepted")
	}
	if in.CheckDelivery(NewDelivery(3, 2)) == nil {
		t.Error("mis-sized delivery accepted")
	}
}

func TestCheckStrategy(t *testing.T) {
	in := tinyInstance(t)
	s := Strategy{Alloc: NewAllocation(3), Delivery: NewDelivery(2, 2)}
	if err := in.Check(s); err != nil {
		t.Errorf("valid strategy rejected: %v", err)
	}
	s.Alloc[0] = Alloc{Server: 1, Channel: 0}
	if in.Check(s) == nil {
		t.Error("invalid strategy accepted")
	}
}
