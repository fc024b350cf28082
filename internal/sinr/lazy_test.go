package sinr

import (
	"math"
	"slices"
	"testing"

	"fadingcr/internal/xrand"
)

// eagerFill fills every row of the matrix the way channels did before rows
// were filled on first transmission: the upper triangle is computed and
// mirrored. It turns a lazy channel into the eager oracle.
func eagerFill(gc *gainCache) {
	n := gc.n
	for u := 0; u < n; u++ {
		row := gc.row(u)
		row[u] = attenuation(0, gc.alpha)
		for v := u + 1; v < n; v++ {
			a := attenuation(gc.pts[u].Dist2(gc.pts[v]), gc.alpha)
			row[v] = a
			gc.g[v*n+u] = a
		}
		gc.filled[u] = true
	}
}

// TestLazyRowsMatchEagerMatrix: channels that fill gain rows on first
// transmission deliver bit-identically to eagerly filled ones — receptions,
// observer callbacks (order and SINR bits), Receivable and InterferenceAt —
// for all three channel types, sequential and parallel, with path-loss
// exponents on and off the attenuation fast paths.
func TestLazyRowsMatchEagerMatrix(t *testing.T) {
	const n = 70
	for _, alpha := range []float64{3, 2.7, 5.3} {
		for _, opts := range [][]Option{nil, {WithDeliverParallelism(3)}} {
			d, _ := equivGeometry(t, uint64(alpha*10), n, 0)
			p := fillPower(Params{Alpha: alpha, Beta: 0.9, Noise: 0.5}, d)
			rng := xrand.New(uint64(alpha * 100))
			powers := make([]float64, n)
			for i := range powers {
				powers[i] = p.Power * (0.5 + rng.Float64())
			}
			build := func() (*Channel, *PowerChannel, *RayleighChannel) {
				c, err := New(p, d.Points, opts...)
				if err != nil {
					t.Fatal(err)
				}
				pc, err := NewWithPowers(p, d.Points, powers, opts...)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := NewRayleigh(p, d.Points, 17, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return c, pc, rc
			}
			lc, lp, lr := build()
			ec, ep, er := build()
			for _, gc := range []*gainCache{ec.gains, ep.gains, er.gains} {
				eagerFill(gc)
			}
			var lcObs, ecObs, lrObs, erObs recordingObserver
			lc.SetObserver(&lcObs)
			ec.SetObserver(&ecObs)
			lr.SetObserver(&lrObs)
			er.SetObserver(&erObs)

			pairs := []struct {
				name        string
				lazy, eager interface{ Deliver(tx []bool, recv []int) }
			}{{"sinr", lc, ec}, {"power", lp, ep}, {"rayleigh", lr, er}}
			tx := make([]bool, n)
			ra, rb := make([]int, n), make([]int, n)
			for round := 0; round < 12; round++ {
				density := []float64{0.02, 0.1, 0.4}[round%3]
				for i := range tx {
					tx[i] = rng.Float64() < density
				}
				for _, pr := range pairs {
					pr.lazy.Deliver(tx, ra)
					pr.eager.Deliver(tx, rb)
					for v := range ra {
						if ra[v] != rb[v] {
							t.Fatalf("α=%v %s opts=%d round %d listener %d: lazy recv %d, eager %d",
								alpha, pr.name, len(opts), round, v, ra[v], rb[v])
						}
					}
				}
				// Off the Deliver path, unfilled rows are computed on the
				// spot; both must agree bit for bit.
				for v := 0; v < n; v += 7 {
					if a, b := lc.InterferenceAt(tx, v), ec.InterferenceAt(tx, v); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("α=%v round %d listener %d: InterferenceAt lazy %v, eager %v", alpha, round, v, a, b)
					}
					if a, b := lc.Receivable(tx, v), ec.Receivable(tx, v); !slices.Equal(a, b) {
						t.Fatalf("α=%v round %d listener %d: Receivable lazy %v, eager %v", alpha, round, v, a, b)
					}
				}
			}
			for _, obs := range [][2]*recordingObserver{{&lcObs, &ecObs}, {&lrObs, &erObs}} {
				a, b := obs[0].got, obs[1].got
				if len(a) != len(b) || len(a) == 0 {
					t.Fatalf("α=%v: %d lazy observer calls, %d eager", alpha, len(a), len(b))
				}
				for i := range a {
					if a[i].listener != b[i].listener || a[i].from != b[i].from ||
						math.Float64bits(a[i].sinr) != math.Float64bits(b[i].sinr) {
						t.Fatalf("α=%v call %d: lazy %+v, eager %+v", alpha, i, a[i], b[i])
					}
				}
			}
			if filled := countFilled(lc.gains); filled == 0 || filled == n {
				t.Errorf("α=%v: lazy channel filled %d of %d rows, want some but not all", alpha, filled, n)
			}
		}
	}
}

func countFilled(gc *gainCache) int {
	k := 0
	for _, f := range gc.filled {
		if f {
			k++
		}
	}
	return k
}

// TestLazyRowFillAllocatesNothing: Deliver stays allocation-free on rounds
// that fill new rows, not only once every row is filled.
func TestLazyRowFillAllocatesNothing(t *testing.T) {
	const n = 96
	d, _ := equivGeometry(t, 41, n, 0)
	p := fillPower(Params{Alpha: 3, Beta: 1.5, Noise: 1}, d)
	c, err := New(p, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	recv := make([]int, n)
	tx := make([]bool, n)
	c.Deliver(tx, recv) // warm up with no transmitters: fills nothing
	u := 0
	allocs := testing.AllocsPerRun(40, func() {
		clear(tx)
		tx[u%n], tx[(u+1)%n] = true, true
		u += 2
		c.Deliver(tx, recv)
	})
	if allocs != 0 {
		t.Errorf("Deliver allocates %.1f times per row-filling call, want 0", allocs)
	}
	if filled := countFilled(c.gains); filled != 82 {
		t.Errorf("%d rows filled after 41 two-transmitter rounds, want 82", filled)
	}
}
