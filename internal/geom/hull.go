package geom

import (
	"math"
	"slices"
)

// indexedPoint is a point with its index in the caller's slice, so sorts
// move points instead of chasing indices.
type indexedPoint struct {
	Point
	i int
}

// sortedPoints returns the points with finite coordinates, tagged with
// their indices and sorted by x, then y, then index: the sweep order of
// MinPairwiseDist and the monotone-chain order of convexHull.
func sortedPoints(pts []Point) []indexedPoint {
	out := make([]indexedPoint, 0, len(pts))
	for k, p := range pts {
		if finite(p.X) && finite(p.Y) {
			out = append(out, indexedPoint{p, k})
		}
	}
	slices.SortFunc(out, func(a, b indexedPoint) int {
		switch {
		case a.X < b.X:
			return -1
		case a.X > b.X:
			return 1
		case a.Y < b.Y:
			return -1
		case a.Y > b.Y:
			return 1
		}
		return a.i - b.i
	})
	return out
}

// finite reports whether c is neither NaN nor infinite.
func finite(c float64) bool { return !math.IsNaN(c) && !math.IsInf(c, 0) }

// hullSlack is the relative margin by which an off-hull point's farthest
// hull distance must clear the hull diameter before the point is ruled out.
// Dist2 is within a factor (1 ± 2⁻⁵³)⁴ of the exact squared distance, so
// 1e-12 leaves a margin of four orders of magnitude.
const hullSlack = 1e-12

// hullCoordLimit bounds the coordinates the hull argument covers: within
// [2⁻⁴⁰⁰, 2⁴⁰⁰] in magnitude (or zero), no product in orient or Dist2 can
// underflow or overflow, which the error bounds assume.
const hullCoordLimit = 0x1p400

// hullDiameter returns the largest Dist2 over all index pairs and the
// lexicographically first pair (i < j) attaining it — exactly what an
// all-pairs scan in index order returns — in about O(n log n + n·h) for h
// hull points.
//
// In exact arithmetic the farthest point from any point is a vertex of the
// convex hull, so only hull vertices can be diameter endpoints. Floating
// point could break that in two ways, and both are closed here:
//
//   - the hull is built with an orientation test that drops a point only
//     when the turn is certainly clockwise, so the kept set (collinear and
//     undecidable points included) contains every true hull vertex;
//   - a rounded Dist2 of an off-hull pair might tie or beat the hull's
//     rounded maximum M. An off-hull point p is ruled out only when its
//     largest Dist2 to any kept point, widened by hullSlack, is still below
//     M; every pair through p is then certainly below M. Points that cannot
//     be ruled out are compared against every other point.
//
// Inputs outside the covered coordinate range (non-finite, huge, or tiny
// nonzero coordinates) rule out nothing and reduce to the all-pairs scan.
func hullDiameter(pts []Point) (best float64, i, j int) {
	best, i, j = -1, -1, -1
	consider := func(a, b int) {
		lo, hi := min(a, b), max(a, b)
		d2 := pts[lo].Dist2(pts[hi])
		if d2 > best || d2 == best && (lo < i || lo == i && hi < j) {
			best, i, j = d2, lo, hi
		}
	}
	onHull := make([]bool, len(pts))
	var hull []int
	if hullCovers(pts) {
		hull = convexHull(pts)
		for _, h := range hull {
			onHull[h] = true
		}
		for s, a := range hull {
			for _, b := range hull[s+1:] {
				consider(a, b)
			}
		}
	}
	limit := best
	for p := range pts {
		if onHull[p] || ruledOut(pts, p, hull, limit) {
			continue
		}
		for q := range pts {
			if q != p {
				consider(p, q)
			}
		}
	}
	return best, i, j
}

// ruledOut reports whether no pair through the off-hull point p can reach
// the hull maximum limit (see hullDiameter). With no hull it rules out
// nothing.
func ruledOut(pts []Point, p int, hull []int, limit float64) bool {
	if len(hull) == 0 {
		return false
	}
	for _, h := range hull {
		if pts[p].Dist2(pts[h])*(1+hullSlack) >= limit {
			return false
		}
	}
	return true
}

// hullCovers reports whether every coordinate lies in the range the hull
// argument's error bounds cover.
func hullCovers(pts []Point) bool {
	ok := func(c float64) bool {
		a := math.Abs(c)
		return c == 0 || a >= 1/hullCoordLimit && a <= hullCoordLimit
	}
	for _, p := range pts {
		if !ok(p.X) || !ok(p.Y) {
			return false
		}
	}
	return true
}

// convexHull returns the indices of the points kept by Andrew's monotone
// chain when a point is popped only on a certainly clockwise turn: a
// superset of the convex hull's vertices that keeps collinear, duplicate
// and undecidable points.
func convexHull(pts []Point) []int {
	order := sortedPoints(pts)
	kept := make([]bool, len(pts))
	var chain []indexedPoint
	for _, upper := range [2]bool{false, true} {
		chain = chain[:0]
		for k := range order {
			c := order[k]
			if upper {
				c = order[len(order)-1-k]
			}
			for len(chain) >= 2 && orient(chain[len(chain)-2].Point, chain[len(chain)-1].Point, c.Point) < 0 {
				chain = chain[:len(chain)-1]
			}
			chain = append(chain, c)
		}
		for _, c := range chain {
			kept[c.i] = true
		}
	}
	var hull []int
	for k, in := range kept {
		if in {
			hull = append(hull, k)
		}
	}
	return hull
}

// orientErrBound is Shewchuk's ccwerrboundA, (3 + 16ε)·ε for ε = 2⁻⁵³: when
// |det| exceeds it times the magnitude of det's two products, det's sign is
// the exact sign.
const orientErrBound = (3 + 16*0x1p-53) * 0x1p-53

// orient returns +1 when a→b→c certainly turns counter-clockwise, −1 when it
// certainly turns clockwise, and 0 when floating point cannot tell (exactly
// collinear points included). The float64 conversions keep each product
// rounded on its own, as the error bound assumes.
func orient(a, b, c Point) int {
	left := float64((a.X - c.X) * (b.Y - c.Y))
	right := float64((a.Y - c.Y) * (b.X - c.X))
	det := left - right
	bound := orientErrBound * (math.Abs(left) + math.Abs(right))
	switch {
	case det > bound:
		return 1
	case det < -bound:
		return -1
	}
	return 0
}
