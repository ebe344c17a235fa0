// Package geo supplies the planar geometry used by the edge-storage
// topology: points in a metric region, distances, coverage disks and a
// spatial hash grid for efficient "which servers cover this user"
// queries (the V_j and U_i sets of the paper's system model, §2.1).
//
// Coordinates are meters in an arbitrary local frame; the EUA-like
// generator in internal/topology places servers and users in a region a
// few kilometers across, matching the Melbourne CBD extract the paper
// uses.
package geo

import (
	"fmt"
	"math"

	"idde/internal/units"
)

// Point is a position in meters.
type Point struct {
	X, Y float64
}

func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Dist reports the Euclidean distance between two points.
func Dist(a, b Point) units.Meters {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return units.Meters(math.Hypot(dx, dy))
}

// Dist2 reports the squared Euclidean distance, avoiding the square root
// for comparisons.
func Dist2(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return dx*dx + dy*dy
}

// Rect is an axis-aligned rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Width and Height report the rectangle extents.
func (r Rect) Width() float64  { return r.MaxX - r.MinX }
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// Disk is a coverage area: an edge server's radio footprint.
type Disk struct {
	Center Point
	Radius units.Meters
}

// Covers reports whether p is within the disk (inclusive).
func (d Disk) Covers(p Point) bool {
	r := float64(d.Radius)
	return Dist2(d.Center, p) <= r*r
}

// Grid is a uniform spatial hash over points, supporting range queries
// in expected O(result) time. It indexes a fixed point set (servers are
// static in IDDE scenarios), mapping each to the caller's integer id.
type Grid struct {
	cell    float64
	origin  Point
	buckets map[[2]int][]entry
}

type entry struct {
	id int
	p  Point
}

// NewGrid builds a grid with the given cell size (meters). Cell size
// should be on the order of the typical query radius.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 {
		panic("geo: NewGrid with non-positive cell size")
	}
	return &Grid{cell: cellSize, buckets: make(map[[2]int][]entry)}
}

func (g *Grid) key(p Point) [2]int {
	return [2]int{
		int(math.Floor((p.X - g.origin.X) / g.cell)),
		int(math.Floor((p.Y - g.origin.Y) / g.cell)),
	}
}

// Insert adds a point with an id.
func (g *Grid) Insert(id int, p Point) {
	k := g.key(p)
	g.buckets[k] = append(g.buckets[k], entry{id: id, p: p})
}

// Within returns the ids of all indexed points within radius of q, in
// unspecified order.
func (g *Grid) Within(q Point, radius units.Meters) []int {
	r := float64(radius)
	r2 := r * r
	lo := g.key(Point{q.X - r, q.Y - r})
	hi := g.key(Point{q.X + r, q.Y + r})
	var out []int
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			for _, e := range g.buckets[[2]int{cx, cy}] {
				if Dist2(q, e.p) <= r2 {
					out = append(out, e.id)
				}
			}
		}
	}
	return out
}
