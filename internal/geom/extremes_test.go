package geom

import (
	"fmt"
	"math"
	"testing"

	"fadingcr/internal/xrand"
)

// scanMinPairwise and scanMaxPairwise are the all-pairs O(n²) scans that
// MinPairwiseDist and MaxPairwiseDist replaced; they are the oracle for
// both, indices and tie-breaks included.
func scanMinPairwise(pts []Point) (d float64, i, j int) {
	d, i, j = math.Inf(1), -1, -1
	best := math.Inf(1)
	for a := range pts {
		for b := a + 1; b < len(pts); b++ {
			if d2 := pts[a].Dist2(pts[b]); d2 < best {
				best, i, j = d2, a, b
			}
		}
	}
	if i >= 0 {
		d = math.Sqrt(best)
	}
	return d, i, j
}

func scanMaxPairwise(pts []Point) (d float64, i, j int) {
	i, j = -1, -1
	best := -1.0
	for a := range pts {
		for b := a + 1; b < len(pts); b++ {
			if d2 := pts[a].Dist2(pts[b]); d2 > best {
				best, i, j = d2, a, b
			}
		}
	}
	if i < 0 {
		return 0, -1, -1
	}
	return math.Sqrt(best), i, j
}

// extremeCases are the inputs the oracle comparison covers: degenerate
// sizes, exact ties on integer grids, collinear and cocircular sets (every
// point on the hull), coincident points, the generators the experiments
// use, and values outside the hull argument's covered range.
func extremeCases(t *testing.T) map[string][]Point {
	t.Helper()
	cases := map[string][]Point{
		"two points":      {{3, 4}, {0, 0}},
		"two coincident":  {{1, 1}, {1, 1}},
		"three collinear": {{0, 0}, {2, 0}, {1, 0}},
		"square ties":     {{0, 0}, {1, 0}, {1, 1}, {0, 1}},
		"non-finite":      {{0, 0}, {math.Inf(1), 0}, {1, math.NaN()}, {2, 2}, {5, 5}},
		"tiny":            {{0, 0}, {1e-200, 0}, {0, 2e-200}, {3e-200, 3e-200}},
		"huge":            {{0, 0}, {1e200, 0}, {0, 1e200}},
	}
	var line, vertical, grid, circle, dup []Point
	for k := 0; k < 40; k++ {
		line = append(line, Point{float64((k * 17) % 40), 0.5 * float64((k*17)%40)})
		vertical = append(vertical, Point{2, float64((k * 7) % 40)})
		circle = append(circle, Point{
			100 * math.Cos(2*math.Pi*float64(k)/40),
			100 * math.Sin(2*math.Pi*float64(k)/40),
		})
		dup = append(dup, Point{float64(k % 5), float64(k % 3)})
	}
	for k := 0; k < 64; k++ {
		grid = append(grid, Point{float64((k * 13) % 8), float64((k * 13) / 8)})
	}
	cases["collinear"] = line
	cases["vertical"] = vertical
	cases["integer grid"] = grid
	cases["cocircular"] = circle
	cases["duplicates"] = dup
	for seed := uint64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		var raw, clustered []Point
		for k := 0; k < 300; k++ {
			raw = append(raw, Point{rng.Float64()*1000 - 500, rng.Float64() * 10})
			c := float64(k % 3)
			clustered = append(clustered, Point{c*1e6 + rng.Float64(), rng.Float64()})
		}
		cases[fmt.Sprintf("random/%d", seed)] = raw
		cases[fmt.Sprintf("clustered/%d", seed)] = clustered
		gens := map[string]func() (*Deployment, error){
			"chain":  func() (*Deployment, error) { return ExponentialChain(seed, 6, 3) },
			"disk":   func() (*Deployment, error) { return UniformDisk(seed, 257) },
			"square": func() (*Deployment, error) { return UniformSquare(seed, 200) },
			"grid":   func() (*Deployment, error) { return PerturbedGrid(seed, 121, 0) },
		}
		for name, gen := range gens {
			d, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			cases[fmt.Sprintf("%s/%d", name, seed)] = d.Points
		}
	}
	return cases
}

// TestPairwiseExtremesMatchScan: the sweep minimum and the hull diameter
// return exactly what the all-pairs scans return, distance bits and
// first-pair tie-break included.
func TestPairwiseExtremesMatchScan(t *testing.T) {
	for name, pts := range extremeCases(t) {
		d, i, j := MinPairwiseDist(pts)
		wd, wi, wj := scanMinPairwise(pts)
		if math.Float64bits(d) != math.Float64bits(wd) || i != wi || j != wj {
			t.Errorf("%s: MinPairwiseDist = (%v, %d, %d), scan (%v, %d, %d)", name, d, i, j, wd, wi, wj)
		}
		d, i, j = MaxPairwiseDist(pts)
		wd, wi, wj = scanMaxPairwise(pts)
		if math.Float64bits(d) != math.Float64bits(wd) || i != wi || j != wj {
			t.Errorf("%s: MaxPairwiseDist = (%v, %d, %d), scan (%v, %d, %d)", name, d, i, j, wd, wi, wj)
		}
	}
}

// TestConvexHullKeepsEveryVertex: the kept set always contains the
// extreme points in each axis direction and every point of a cocircular
// set, and drops strictly interior points.
func TestConvexHullKeepsEveryVertex(t *testing.T) {
	pts := []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 3}, {2, 0}}
	got := convexHull(pts)
	want := []int{0, 1, 2, 3, 6} // (2,0) is collinear on an edge and kept
	if len(got) != len(want) {
		t.Fatalf("convexHull = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("convexHull = %v, want %v", got, want)
		}
	}
	if o := orient(Point{0, 0}, Point{1, 0}, Point{2, 0}); o != 0 {
		t.Errorf("orient(collinear) = %d, want 0", o)
	}
	if o := orient(Point{0, 0}, Point{1, 0}, Point{1, 1}); o != 1 {
		t.Errorf("orient(ccw) = %d, want 1", o)
	}
}
