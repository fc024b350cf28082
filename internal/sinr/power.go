package sinr

import (
	"errors"
	"fmt"
	"math"

	"fadingcr/internal/geom"
)

// PowerChannel is an SINR channel in which each node transmits at its own
// fixed power. The paper's results are for the uniform-power model ("we
// study randomized algorithms using a fixed transmission power"); this
// channel exists so the repository can also exercise the power-control
// regime the related work ([11]) discusses, and so tests can probe how
// sensitive the algorithm is to power heterogeneity (e.g. hardware spread).
// It is not safe for concurrent use (it owns reusable delivery scratch
// buffers); create one channel per goroutine.
type PowerChannel struct {
	params  Params // Power field unused per-node; kept for α, β, N
	powers  []float64
	pts     []geom.Point
	gains   *gainCache // nil: compute attenuations on the fly
	ff      *farField  // nil: exact delivery (the default)
	par     int        // ≥ 2: intra-round parallel workers
	scratch deliverScratch
}

// NewWithPowers builds a per-node-power channel. powers[u] is node u's
// transmission power; all must be positive and finite. The Power field of
// params is ignored. Options configure the gain-cache delivery engine as in
// New.
func NewWithPowers(params Params, pts []geom.Point, powers []float64, opts ...Option) (*PowerChannel, error) {
	probe := params
	probe.Power = 1 // validate the shared constants independently of Power
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, errors.New("sinr: channel needs at least one node")
	}
	if len(powers) != len(pts) {
		return nil, fmt.Errorf("sinr: %d powers for %d nodes", len(powers), len(pts))
	}
	for u, p := range powers {
		if !(p > 0) || math.IsInf(p, 1) {
			return nil, fmt.Errorf("sinr: node %d power %v must be positive and finite", u, p)
		}
	}
	ec, err := resolveEngine(opts)
	if err != nil {
		return nil, err
	}
	cpPts := make([]geom.Point, len(pts))
	copy(cpPts, pts)
	cpPow := make([]float64, len(powers))
	copy(cpPow, powers)
	c := &PowerChannel{
		params:  params,
		powers:  cpPow,
		pts:     cpPts,
		gains:   newGainCache(cpPts, params.Alpha, ec),
		par:     ec.workers(),
		scratch: newDeliverScratch(len(cpPts)),
	}
	if ec.farFieldEps > 0 {
		minP, maxP := cpPow[0], cpPow[0]
		for _, p := range cpPow[1:] {
			minP = math.Min(minP, p)
			maxP = math.Max(maxP, p)
		}
		c.ff, err = newFarField(cpPts, params.Alpha, params.Noise, minP, maxP, ec.farFieldEps, c.par)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// N returns the number of nodes on the channel.
func (c *PowerChannel) N() int { return len(c.pts) }

// GainCacheBytes returns the footprint of the channel's cached gain
// matrix, or 0 when the channel computes attenuations on the fly.
func (c *PowerChannel) GainCacheBytes() int64 {
	if c.gains == nil {
		return 0
	}
	return c.gains.bytes()
}

// Powers returns a copy of the per-node power assignment.
func (c *PowerChannel) Powers() []float64 {
	return append([]float64(nil), c.powers...)
}

// signal returns the received signal strength of transmitter u at listener
// v under u's own power, from the cached gain row when available. Both
// branches evaluate the identical expression powers[u]·d(u,v)^{-α}, so
// results are bit-equal.
//
//crlint:hotpath
func (c *PowerChannel) signal(u, v int) float64 {
	if c.gains != nil {
		return c.powers[u] * c.gains.at(u, v)
	}
	return c.powers[u] * attenuation(c.pts[u].Dist2(c.pts[v]), c.params.Alpha)
}

// Deliver computes one round of reception; the contract matches
// Channel.Deliver.
//
//crlint:hotpath
func (c *PowerChannel) Deliver(tx []bool, recv []int) {
	if len(tx) != len(c.pts) || len(recv) != len(c.pts) {
		panic(fmt.Sprintf("sinr: Deliver slice lengths tx=%d recv=%d, want %d", len(tx), len(recv), len(c.pts)))
	}
	mDeliveries.Inc()
	switch {
	case c.ff != nil:
		mDeliveriesFarField.Inc()
	case c.gains != nil:
		mDeliveriesCached.Inc()
	default:
		mDeliveriesFallback.Inc()
	}
	txList := c.scratch.indices(tx)
	if len(txList) == 0 {
		for v := range recv {
			recv[v] = -1
		}
		return
	}
	switch {
	case c.ff != nil:
		c.ff.prepareRound(txList)
	case c.gains != nil:
		c.gains.fill(txList)
	}
	n := len(c.pts)
	if c.par > 1 {
		//crlint:allow hotalloc deliverParallel's worker closures are the documented O(workers) per-round cost of the opt-in parallel engine
		c.deliverParallel(txList, tx)
	} else {
		switch {
		case c.ff != nil:
			for lo := 0; lo < n; lo += deliverTile {
				c.accumulateFarTile(0, lo, min(lo+deliverTile, n), tx, txList)
			}
		case c.gains != nil:
			for lo := 0; lo < n; lo += deliverTile {
				c.accumulateCachedTile(lo, min(lo+deliverTile, n), txList)
			}
		default:
			for lo := 0; lo < n; lo += deliverTile {
				c.accumulateFlyTile(lo, min(lo+deliverTile, n), txList, tx)
			}
		}
	}
	finalizeReceptions(c.params, &c.scratch, nil, tx, recv)
}

// deliverParallel fans pass one out over runTiles; see Channel.deliverParallel.
func (c *PowerChannel) deliverParallel(txList []int, tx []bool) {
	mDeliveriesParallel.Inc()
	n := len(c.pts)
	switch {
	case c.ff != nil:
		runTiles(n, c.par, func(w, lo, hi int) { c.accumulateFarTile(w, lo, hi, tx, txList) })
	case c.gains != nil:
		runTiles(n, c.par, func(_, lo, hi int) { c.accumulateCachedTile(lo, hi, txList) })
	default:
		runTiles(n, c.par, func(_, lo, hi int) { c.accumulateFlyTile(lo, hi, txList, tx) })
	}
}

// accumulateCachedTile is Channel.accumulateCachedTile with the
// per-transmitter power in place of the shared constant; the
// bit-identical-order argument carries over unchanged.
//
//crlint:hotpath
func (c *PowerChannel) accumulateCachedTile(lo, hi int, txList []int) {
	totals, best, bestU := c.scratch.totals, c.scratch.best, c.scratch.bestU
	for v := lo; v < hi; v++ {
		totals[v], best[v], bestU[v] = 0, -1, -1
	}
	for _, u := range txList {
		row := c.gains.row(u)
		power := c.powers[u]
		for v := lo; v < hi; v++ {
			s := power * row[v]
			totals[v] += s
			if s > best[v] {
				best[v], bestU[v] = s, u
			}
		}
	}
}

// accumulateFlyTile is the on-the-fly pass one over one listener tile; see
// Channel.accumulateFlyTile.
//
//crlint:hotpath
func (c *PowerChannel) accumulateFlyTile(lo, hi int, txList []int, tx []bool) {
	totals, best, bestU := c.scratch.totals, c.scratch.best, c.scratch.bestU
	for v := lo; v < hi; v++ {
		totals[v], best[v], bestU[v] = 0, -1, -1
		if tx[v] {
			continue
		}
		b, bu, t := -1.0, -1, 0.0
		for _, u := range txList {
			s := c.powers[u] * attenuation(c.pts[u].Dist2(c.pts[v]), c.params.Alpha)
			t += s
			if s > b {
				b, bu = s, u
			}
		}
		totals[v], best[v], bestU[v] = t, b, bu
	}
}

// accumulateFarTile is the ε far-field pass one over one listener tile; see
// Channel.accumulateFarTile. The pruning bounds were built with the
// channel's min/max node power, so the guarantee covers heterogeneous
// powers.
//
//crlint:hotpath
func (c *PowerChannel) accumulateFarTile(worker, lo, hi int, tx []bool, txList []int) {
	totals, best, bestU := c.scratch.totals, c.scratch.best, c.scratch.bestU
	pruned := int64(0)
	for v := lo; v < hi; v++ {
		totals[v], best[v], bestU[v] = 0, -1, -1
		if tx[v] {
			continue
		}
		near := c.ff.nearSet(worker, v, tx, txList)
		pruned += int64(len(txList) - len(near))
		b, bu, t := -1.0, -1, 0.0
		for _, u := range near {
			s := c.signal(u, v)
			t += s
			if s > b {
				b, bu = s, u
			}
		}
		totals[v], best[v], bestU[v] = t, b, bu
	}
	mFarFieldPrunedTx.Add(pruned)
}

// UniformPowers returns a power vector assigning the same power to all n
// nodes — NewWithPowers(params, pts, UniformPowers(n, P)) behaves exactly
// like New(params with Power P, pts).
func UniformPowers(n int, power float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = power
	}
	return out
}
