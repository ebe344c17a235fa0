package geo

import (
	"sort"
	"testing"

	"idde/internal/units"
)

// Coverage membership at the exact disk radius and at grid cell borders
// is where tile assignment could silently disagree with the model's
// coverage sets (topology.Finalize uses Dist ≤ Radius inclusively).
// Pythagorean triples give distances that are exactly representable, so
// these tests exercise the == case, not an epsilon away from it.

// TestDiskCoversExactRadius: points at exactly the radius are covered
// (inclusive boundary), and the next representable point outward is not.
func TestDiskCoversExactRadius(t *testing.T) {
	cases := []struct {
		center Point
		radius float64
		onEdge Point
	}{
		{Point{0, 0}, 500, Point{300, 400}},     // 3-4-5
		{Point{100, 200}, 650, Point{350, 800}}, // 5-12-13 scaled: (250,600)
		{Point{-40, -9}, 41, Point{0, 0}},       // 9-40-41 into the origin
		{Point{1000, 1000}, 725, Point{1435, 1580}},
	}
	for _, c := range cases {
		d := Disk{Center: c.center, Radius: units.Meters(c.radius)}
		if Dist2(c.center, c.onEdge) != c.radius*c.radius {
			t.Fatalf("test setup: %v is not exactly at radius %g of %v", c.onEdge, c.radius, c.center)
		}
		if !d.Covers(c.onEdge) {
			t.Errorf("disk %v r=%g must cover the exact-radius point %v", c.center, c.radius, c.onEdge)
		}
		// One ulp-ish outward along x must fall outside.
		out := c.onEdge
		if out.X >= c.center.X {
			out.X += 1e-9
		} else {
			out.X -= 1e-9
		}
		if d.Covers(out) {
			t.Errorf("disk %v r=%g must not cover %v (just outside)", c.center, c.radius, out)
		}
	}
}

// TestDiskCoversAgreesWithDist: Disk.Covers (squared-distance compare)
// and the Dist ≤ r rule topology.Finalize applies must agree on
// exact-radius points — both sides are exactly representable for
// Pythagorean-triple offsets, so any disagreement would be a real
// membership discrepancy between tile assignment and V_j/U_i.
func TestDiskCoversAgreesWithDist(t *testing.T) {
	center := Point{0, 0}
	for _, r := range []float64{5, 25, 500, 1000} {
		d := Disk{Center: center, Radius: units.Meters(r)}
		pts := []Point{
			{r, 0}, {0, r}, {-r, 0}, {0, -r},
			{3 * r / 5, 4 * r / 5}, {-3 * r / 5, 4 * r / 5},
			{r + 1, 0}, {r / 2, r / 2},
		}
		for _, p := range pts {
			byDisk := d.Covers(p)
			byDist := float64(Dist(center, p)) <= r
			if byDisk != byDist {
				t.Errorf("r=%g p=%v: Disk.Covers=%v but Dist≤r=%v", r, p, byDisk, byDist)
			}
		}
	}
}

// bruteWithin is the reference for Grid.Within: scan everything.
func bruteWithin(pts []Point, q Point, radius float64) []int {
	var out []int
	for id, p := range pts {
		if Dist2(q, p) <= radius*radius {
			out = append(out, id)
		}
	}
	return out
}

// TestGridWithinCellBorders indexes points sitting exactly on cell
// boundaries (including negative coordinates, where floor-division
// bucketing is easy to get wrong) and checks Within against the brute
// force for queries whose radius lands exactly on those points.
func TestGridWithinCellBorders(t *testing.T) {
	const cell = 100.0
	pts := []Point{
		{0, 0}, {100, 0}, {200, 0}, {-100, 0}, {-200, 0},
		{0, 100}, {0, -100}, {100, 100}, {-100, -100},
		{300, 400}, {-300, 400}, {300, -400},
		{50, 50}, {-50, -50}, {150, 250},
		{99.999999, 0}, {100.000001, 0},
	}
	g := NewGrid(cell)
	for id, p := range pts {
		g.Insert(id, p)
	}
	if n := gridLen(g); n != len(pts) {
		t.Fatalf("grid indexed %d points, want %d", n, len(pts))
	}
	queries := []struct {
		q Point
		r float64
	}{
		{Point{0, 0}, 100}, // hits four exact-radius border points
		{Point{0, 0}, 500}, // hits the 3-4-5 points exactly
		{Point{100, 0}, 0}, // zero radius: the point itself only
		{Point{-100, 0}, 100},
		{Point{-150, -150}, 70.71067811865476}, // ~50√2, near-corner
		{Point{200, 0}, 100},
		{Point{0, 0}, 99.999999},
	}
	for _, qr := range queries {
		got := g.Within(qr.q, units.Meters(qr.r))
		sort.Ints(got)
		want := bruteWithin(pts, qr.q, qr.r)
		if len(got) != len(want) {
			t.Fatalf("q=%v r=%.9g: Within=%v want %v", qr.q, qr.r, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("q=%v r=%.9g: Within=%v want %v", qr.q, qr.r, got, want)
			}
		}
	}
}

// TestGridWithinExactRadiusInclusive: a point exactly at the query
// radius is returned — Within uses the same inclusive ≤ as Disk.Covers
// and topology coverage, so the partition layer sees the same
// membership as the model.
func TestGridWithinExactRadiusInclusive(t *testing.T) {
	g := NewGrid(250)
	g.Insert(0, Point{300, 400}) // exactly 500 from origin
	got := g.Within(Point{0, 0}, 500)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("exact-radius point not returned: %v", got)
	}
	if got := g.Within(Point{0, 0}, 499.9999999); len(got) != 0 {
		t.Fatalf("point inside a shrunk radius: %v", got)
	}
}
