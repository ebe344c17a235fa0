package topology

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"idde/internal/geo"
	"idde/internal/graph"
	"idde/internal/rng"
	"idde/internal/units"
)

func genDefault(t *testing.T, n, m int, density float64, seed uint64) *Topology {
	t.Helper()
	top, err := Generate(DefaultGen(n, m, density), rng.New(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return top
}

func TestGenerateBasicShape(t *testing.T) {
	top := genDefault(t, 30, 200, 1.0, 1)
	if top.N() != 30 || top.M() != 200 {
		t.Fatalf("N=%d M=%d", top.N(), top.M())
	}
	if top.TotalChannels() != 90 {
		t.Errorf("TotalChannels = %d, want 90", top.TotalChannels())
	}
	if top.Net.M() != 30 { // density 1.0 → 30 links
		t.Errorf("links = %d, want 30", top.Net.M())
	}
	if !top.Net.Connected() {
		t.Error("network not connected")
	}
}

func TestGenerateEveryUserCovered(t *testing.T) {
	top := genDefault(t, 25, 300, 1.4, 2)
	for j := 0; j < top.M(); j++ {
		if len(top.Coverage[j]) == 0 {
			t.Errorf("user %d has empty V_j", j)
		}
	}
}

func TestCoverageConsistency(t *testing.T) {
	top := genDefault(t, 20, 150, 1.0, 3)
	// V_j and U_i must be mutually consistent and match Covers().
	for j, vs := range top.Coverage {
		for _, i := range vs {
			if !top.Covers(i, j) {
				t.Fatalf("Coverage says %d covers %d but Covers disagrees", i, j)
			}
			found := false
			for _, u := range top.Covered[i] {
				if u == j {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("user %d in V_j of server %d but missing from U_i", j, i)
			}
		}
	}
	for i := range top.Servers {
		for _, j := range top.Covered[i] {
			if float64(top.Distance(i, j)) > float64(top.Servers[i].Radius) {
				t.Fatalf("covered user %d outside radius of server %d", j, i)
			}
		}
	}
}

func TestGenerateParameterRanges(t *testing.T) {
	top := genDefault(t, 40, 250, 2.0, 4)
	for _, sv := range top.Servers {
		if sv.Radius < 400 || sv.Radius > 800 {
			t.Errorf("server radius %v out of range", sv.Radius)
		}
		if sv.Channels != 3 || sv.Bandwidth != 200 {
			t.Errorf("server channels/bandwidth wrong: %+v", sv)
		}
		if top.Region.Clamp(sv.Pos) != sv.Pos {
			t.Errorf("server outside region: %v", sv.Pos)
		}
	}
	for _, u := range top.Users {
		if u.Power < 1 || u.Power > 5 {
			t.Errorf("user power %v out of range", u.Power)
		}
		if u.MaxRate < 150 || u.MaxRate > 250 {
			t.Errorf("user max rate %v out of range", u.MaxRate)
		}
		if top.Region.Clamp(u.Pos) != u.Pos {
			t.Errorf("user outside region: %v", u.Pos)
		}
	}
	for _, e := range top.Net.Edges() {
		speed := 1 / float64(e.Cost)
		if speed < 2000-1e-6 || speed > 6000+1e-6 {
			t.Errorf("link speed %v out of range", speed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genDefault(t, 30, 200, 1.0, 7)
	b := genDefault(t, 30, 200, 1.0, 7)
	for i := range a.Servers {
		if a.Servers[i] != b.Servers[i] {
			t.Fatalf("server %d differs", i)
		}
	}
	for j := range a.Users {
		if a.Users[j] != b.Users[j] {
			t.Fatalf("user %d differs", j)
		}
	}
}

func TestGenerateSeedSensitive(t *testing.T) {
	a := genDefault(t, 30, 200, 1.0, 7)
	b := genDefault(t, 30, 200, 1.0, 8)
	same := 0
	for i := range a.Servers {
		if a.Servers[i].Pos == b.Servers[i].Pos {
			same++
		}
	}
	if same == len(a.Servers) {
		t.Error("different seeds produced identical server layout")
	}
}

func TestPathCostProperties(t *testing.T) {
	top := genDefault(t, 30, 100, 1.2, 9)
	n := top.N()
	for o := 0; o < n; o++ {
		if top.PathCost[o][o] != 0 {
			t.Errorf("self path cost %v", top.PathCost[o][o])
		}
		for i := 0; i < n; i++ {
			c := float64(top.PathCost[o][i])
			if math.IsInf(c, 1) {
				t.Fatalf("unreachable pair (%d,%d) in connected topology", o, i)
			}
			// Any path is at least as cheap as one max-speed hop and at
			// most the cloud would still dominate per Eq. 8 semantics
			// handled in model; here just check positivity.
			if o != i && c <= 0 {
				t.Errorf("non-positive path cost at (%d,%d)", o, i)
			}
		}
	}
	if top.CloudCost != units.PerMB(600) {
		t.Errorf("cloud cost %v", top.CloudCost)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(DefaultGen(0, 10, 1), rng.New(1)); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Generate(DefaultGen(10, -1, 1), rng.New(1)); err == nil {
		t.Error("M<0 accepted")
	}
	cfg := DefaultGen(10, 10, 1)
	cfg.Density = -1
	if _, err := Generate(cfg, rng.New(1)); err == nil {
		t.Error("negative density accepted")
	}
}

func TestFinalizeValidation(t *testing.T) {
	mk := func() *Topology {
		return &Topology{
			Region:    geo.Rect{MaxX: 100, MaxY: 100},
			Servers:   []Server{{ID: 0, Pos: geo.Point{X: 50, Y: 50}, Radius: 100, Channels: 2, Bandwidth: 200}},
			Users:     []User{{ID: 0, Pos: geo.Point{X: 60, Y: 50}, Power: 2, MaxRate: 200}},
			Net:       graph.New(1),
			CloudRate: 600,
		}
	}
	if err := mk().Finalize(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	bad := mk()
	bad.Net = nil
	if err := bad.Finalize(); err == nil {
		t.Error("nil net accepted")
	}
	bad = mk()
	bad.Net = graph.New(2)
	if err := bad.Finalize(); err == nil {
		t.Error("vertex-count mismatch accepted")
	}
	bad = mk()
	bad.Servers[0].Channels = 0
	if err := bad.Finalize(); err == nil {
		t.Error("zero channels accepted")
	}
	bad = mk()
	bad.Users[0].Power = 0
	if err := bad.Finalize(); err == nil {
		t.Error("zero power accepted")
	}
	bad = mk()
	bad.CloudRate = 0
	if err := bad.Finalize(); err == nil {
		t.Error("zero cloud rate accepted")
	}
	bad = mk()
	bad.Servers[0].ID = 5
	if err := bad.Finalize(); err == nil {
		t.Error("bad server id accepted")
	}
	// Disconnected network must be rejected.
	disc := &Topology{
		Region: geo.Rect{MaxX: 100, MaxY: 100},
		Servers: []Server{
			{ID: 0, Pos: geo.Point{X: 10, Y: 10}, Radius: 100, Channels: 1, Bandwidth: 200},
			{ID: 1, Pos: geo.Point{X: 90, Y: 90}, Radius: 100, Channels: 1, Bandwidth: 200},
		},
		Users:     nil,
		Net:       graph.New(2),
		CloudRate: 600,
	}
	if err := disc.Finalize(); err == nil {
		t.Error("disconnected network accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	top := genDefault(t, 12, 40, 1.5, 11)
	var buf bytes.Buffer
	if err := top.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var got Topology
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.N() != top.N() || got.M() != top.M() {
		t.Fatalf("round trip sizes differ")
	}
	for i := range top.Servers {
		if got.Servers[i] != top.Servers[i] {
			t.Errorf("server %d differs after round trip", i)
		}
	}
	for j := range top.Users {
		if got.Users[j] != top.Users[j] {
			t.Errorf("user %d differs after round trip", j)
		}
	}
	if got.Net.M() != top.Net.M() {
		t.Errorf("links differ: %d vs %d", got.Net.M(), top.Net.M())
	}
	// Derived state must be rebuilt identically (up to fp noise).
	for o := 0; o < top.N(); o++ {
		for i := 0; i < top.N(); i++ {
			a, b := float64(top.PathCost[o][i]), float64(got.PathCost[o][i])
			if math.Abs(a-b) > 1e-9*math.Max(1, a) {
				t.Fatalf("path cost differs at (%d,%d)", o, i)
			}
		}
	}
}

func TestFailedServerSemantics(t *testing.T) {
	top := genDefault(t, 10, 60, 1.0, 31)
	// Fail server 0 and refinalize with partition allowed.
	top.Servers[0].Failed = true
	top.AllowPartition = true
	if err := top.Finalize(); err != nil {
		t.Fatalf("Finalize with failed server: %v", err)
	}
	for j := 0; j < top.M(); j++ {
		if top.Covers(0, j) {
			t.Fatalf("failed server covers user %d", j)
		}
		for _, i := range top.Coverage[j] {
			if i == 0 {
				t.Fatalf("failed server in V_%d", j)
			}
		}
	}
	if len(top.Covered[0]) != 0 {
		t.Error("failed server has covered users")
	}
	// Failure flag survives JSON round trips.
	var buf bytes.Buffer
	if err := top.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Round trip may fail Finalize if partitioned; tolerate that by
	// checking the flag in the raw JSON instead.
	if !bytes.Contains(buf.Bytes(), []byte(`"failed": true`)) {
		t.Error("failed flag not serialized")
	}
}

func TestAllowPartition(t *testing.T) {
	top := &Topology{
		Region: geo.Rect{MaxX: 100, MaxY: 100},
		Servers: []Server{
			{ID: 0, Pos: geo.Point{X: 10, Y: 10}, Radius: 100, Channels: 1, Bandwidth: 200},
			{ID: 1, Pos: geo.Point{X: 90, Y: 90}, Radius: 100, Channels: 1, Bandwidth: 200},
		},
		Net:            graph.New(2),
		CloudRate:      600,
		AllowPartition: true,
	}
	if err := top.Finalize(); err != nil {
		t.Fatalf("partitioned topology rejected despite AllowPartition: %v", err)
	}
	if !math.IsInf(float64(top.PathCost[0][1]), 1) {
		t.Error("unreachable pair should cost +Inf")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	var top Topology
	if err := json.Unmarshal([]byte("{"), &top); err == nil {
		t.Error("garbage accepted")
	}
	// Valid JSON, invalid topology (no servers, nil graph vertices).
	if err := json.Unmarshal([]byte(`{"servers":[],"users":[],"cloudRate":0,"links":[]}`), &top); err == nil {
		t.Error("invalid topology accepted")
	}
}
