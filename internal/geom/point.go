// Package geom provides the two-dimensional Euclidean substrate the paper's
// model lives in: points, distances, exponential annuli, deployments
// (placements of wireless nodes in the plane), link-length statistics, and
// link classes over the active nodes of an execution.
//
// Conventions follow Section 2 of the paper: deployments are normalised so
// the shortest link has length 1, R denotes the ratio of the longest to the
// shortest link, and link class d_i contains the active nodes whose nearest
// active neighbour lies at distance in [2^i, 2^{i+1}).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the two-dimensional Euclidean plane.
type Point struct {
	X, Y float64
}

// Add returns the vector sum p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as nearest-neighbour scans.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }

// MinPairwiseDist returns the smallest distance between any two distinct
// points, and the indices achieving it. It returns +Inf and (-1, -1) when
// fewer than two points are given. Ties go to the lexicographically first
// index pair (i < j), as an all-pairs scan in index order would report.
//
// It sweeps the points in x order and stops scanning ahead of a point once
// the x gap alone squares past the best squared distance so far. The gap is
// the very dx that Dist2 squares, so every pruned pair has a Dist2 strictly
// above the minimum and the result is exact, not approximate: the same
// Dist2 values are compared as in the all-pairs scan. Points with a
// non-finite coordinate are left out of the sweep: their Dist2 is +Inf or
// NaN, which never wins the scan's strict comparison either.
func MinPairwiseDist(pts []Point) (d float64, i, j int) {
	d, i, j = math.Inf(1), -1, -1
	order := sortedPoints(pts)
	best := math.Inf(1)
	for s, a := range order {
		for _, b := range order[s+1:] {
			if dx := b.X - a.X; dx*dx > best {
				break
			}
			d2 := a.Dist2(b.Point)
			lo, hi := min(a.i, b.i), max(a.i, b.i)
			if d2 < best || d2 == best && (lo < i || lo == i && hi < j) {
				best, i, j = d2, lo, hi
			}
		}
	}
	if i >= 0 {
		d = math.Sqrt(best)
	}
	return d, i, j
}

// MaxPairwiseDist returns the largest distance between any two distinct
// points, and the indices achieving it. It returns 0 and (-1, -1) when fewer
// than two points are given. Ties go to the lexicographically first index
// pair (i < j), as an all-pairs scan in index order would report.
//
// The diameter of a point set is attained between convex-hull vertices, so
// only hull pairs are compared all-pairs; see hullDiameter for how the
// floating-point result is kept identical to the all-pairs scan.
func MaxPairwiseDist(pts []Point) (d float64, i, j int) {
	if len(pts) < 2 {
		return 0, -1, -1
	}
	best, i, j := hullDiameter(pts)
	return math.Sqrt(best), i, j
}

// NearestNeighbor returns the index of the point in pts nearest to pts[i]
// (excluding i itself) and the distance to it. It returns (-1, +Inf) when
// pts has fewer than two points.
func NearestNeighbor(pts []Point, i int) (j int, d float64) {
	j, d = -1, math.Inf(1)
	best := math.Inf(1)
	for b := range pts {
		if b == i {
			continue
		}
		if d2 := pts[i].Dist2(pts[b]); d2 < best {
			best, j = d2, b
		}
	}
	if j >= 0 {
		d = math.Sqrt(best)
	}
	return j, d
}
