package geo

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"idde/internal/rng"
	"idde/internal/units"
)

func TestDist(t *testing.T) {
	if d := Dist(Point{0, 0}, Point{3, 4}); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Dist(Point{1, 1}, Point{1, 1}); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{math.Mod(ax, 1e4), math.Mod(ay, 1e4)}
		b := Point{math.Mod(bx, 1e4), math.Mod(by, 1e4)}
		c := Point{math.Mod(cx, 1e4), math.Mod(cy, 1e4)}
		ab, ba := Dist(a, b), Dist(b, a)
		if ab != ba {
			return false
		}
		// Triangle inequality with fp slack.
		return float64(Dist(a, c)) <= float64(ab)+float64(Dist(b, c))+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist2Consistency(t *testing.T) {
	a, b := Point{2, 3}, Point{-1, 7}
	d := float64(Dist(a, b))
	if math.Abs(Dist2(a, b)-d*d) > 1e-9 {
		t.Errorf("Dist2 inconsistent with Dist²")
	}
}

func TestRect(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	if r.Width() != 10 || r.Height() != 5 {
		t.Error("extent wrong")
	}
	got := r.Clamp(Point{-3, 7})
	if got != (Point{0, 5}) {
		t.Errorf("Clamp = %v", got)
	}
	if p := (Point{4, 4}); r.Clamp(p) != p {
		t.Error("Clamp moved interior point")
	}
}

func TestDiskCovers(t *testing.T) {
	d := Disk{Center: Point{0, 0}, Radius: 100}
	if !d.Covers(Point{60, 80}) { // exactly at radius
		t.Error("boundary point not covered")
	}
	if d.Covers(Point{60, 81}) {
		t.Error("outside point covered")
	}
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	s := rng.New(77)
	pts := make([]Point, 500)
	g := NewGrid(250)
	for i := range pts {
		pts[i] = Point{s.Uniform(0, 3000), s.Uniform(0, 2000)}
		g.Insert(i, pts[i])
	}
	if n := gridLen(g); n != 500 {
		t.Fatalf("grid indexed %d points", n)
	}
	for trial := 0; trial < 50; trial++ {
		q := Point{s.Uniform(-100, 3100), s.Uniform(-100, 2100)}
		radius := units.Meters(s.Uniform(50, 900))
		got := g.Within(q, radius)
		sort.Ints(got)
		var want []int
		r2 := float64(radius) * float64(radius)
		for i, p := range pts {
			if Dist2(q, p) <= r2 {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

// gridLen counts the points indexed in g.
func gridLen(g *Grid) int {
	n := 0
	for _, b := range g.buckets {
		n += len(b)
	}
	return n
}

func TestGridFarQuery(t *testing.T) {
	g := NewGrid(100)
	g.Insert(1, Point{0, 0})
	if ids := g.Within(Point{5000, 5000}, 100); len(ids) != 0 {
		t.Errorf("far Within returned %v", ids)
	}
	// The query's window spans ~140×140 cells around an empty center.
	if ids := g.Within(Point{5000, 5000}, 7072); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("far Within over the whole span returned %v", ids)
	}
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid(0) did not panic")
		}
	}()
	NewGrid(0)
}
