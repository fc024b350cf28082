package sinr

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// RayleighChannel extends the deterministic SINR channel with Rayleigh
// fading: in every round, each transmitter→listener signal is scaled by an
// independent exponential random variable with mean 1 (the power fade of a
// Rayleigh-distributed amplitude). This is a robustness extension beyond the
// paper's model — the paper's "fading" refers to the geometric path-loss of
// the SINR equation — used by experiments probing whether the algorithm's
// behaviour survives stochastic channels.
//
// The channel is deterministic given its seed and call sequence: round r of
// two channels with equal seeds, deployments, and transmit histories fades
// identically.
type RayleighChannel struct {
	params   Params
	pts      []geom.Point
	seed     uint64
	round    uint64
	gains    *gainCache // nil: compute attenuations on the fly
	ff       *farField  // nil: exact delivery (the default)
	par      int        // ≥ 2: intra-round parallel workers
	sub      bool       // use the per-listener fade-substream engine
	scratch  deliverScratch
	rng      *xrand.Reseedable   // reseeded per round; avoids per-Deliver allocations
	rngs     []*xrand.Reseedable // per-worker rngs for the substream engine
	observer ReceptionObserver
}

// NewRayleigh builds a Rayleigh-faded channel over the deployment. Options
// configure the gain-cache delivery engine as in New; gain-cache modes draw
// the per-round fades identically, so results never depend on them. The ε
// far-field and parallel options switch to the per-listener fade-substream
// engine (see Deliver), whose draws are deterministic but deliberately a
// different stream from the default's.
func NewRayleigh(params Params, pts []geom.Point, seed uint64, opts ...Option) (*RayleighChannel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, errors.New("sinr: channel needs at least one node")
	}
	ec, err := resolveEngine(opts)
	if err != nil {
		return nil, err
	}
	cp := make([]geom.Point, len(pts))
	copy(cp, pts)
	c := &RayleighChannel{
		params:  params,
		pts:     cp,
		seed:    seed,
		gains:   newGainCache(cp, params.Alpha, ec),
		par:     ec.workers(),
		scratch: newDeliverScratch(len(cp)),
		rng:     xrand.NewReseedable(0),
	}
	if ec.farFieldEps > 0 {
		c.ff, err = newFarField(cp, params.Alpha, params.Noise, params.Power, params.Power, ec.farFieldEps, c.par)
		if err != nil {
			return nil, err
		}
	}
	// The substream engine is selected by ε pruning or by the parallel
	// option — including an explicit workers=1, so the fade stream is a
	// function of the option set alone and never of the worker count.
	c.sub = c.ff != nil || ec.parallel >= 1
	if c.sub {
		c.rngs = make([]*xrand.Reseedable, c.par)
		for w := range c.rngs {
			// Reseeded to the listener's substream before every use; the
			// construction seed is never consumed.
			c.rngs[w] = xrand.NewReseedable(xrand.Split(seed, uint64(w)))
		}
	}
	return c, nil
}

// N returns the number of nodes on the channel.
func (c *RayleighChannel) N() int { return len(c.pts) }

// Params returns the channel's physical-layer parameters.
func (c *RayleighChannel) Params() Params { return c.params }

// GainCacheBytes returns the footprint of the channel's cached gain
// matrix, or 0 when the channel computes attenuations on the fly.
func (c *RayleighChannel) GainCacheBytes() int64 {
	if c.gains == nil {
		return 0
	}
	return c.gains.bytes()
}

// SetObserver installs (or, with nil, removes) the reception observer; see
// Channel.SetObserver. Observed SINR values include the round's fades.
func (c *RayleighChannel) SetObserver(o ReceptionObserver) { c.observer = o }

// signal returns the unfaded signal strength of transmitter u at listener v,
// from the cached gain row when available; both branches compute bit-equal
// values (see Channel.signal).
//
//crlint:hotpath
func (c *RayleighChannel) signal(u, v int) float64 {
	if c.gains != nil {
		return c.params.Power * c.gains.at(u, v)
	}
	return c.params.signalFromDist2(c.pts[u].Dist2(c.pts[v]))
}

// Deliver computes one round of reception under fresh per-pair fades. The
// contract matches Channel.Deliver.
//
//crlint:hotpath
func (c *RayleighChannel) Deliver(tx []bool, recv []int) {
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
	roundSeed := xrand.Split(c.seed, c.round)
	c.round++
	txList := c.scratch.indices(tx)
	if c.ff == nil && c.gains != nil {
		c.gains.fill(txList)
	}
	if c.sub {
		//crlint:allow hotalloc deliverSubstream's worker closures are the documented O(workers) per-round cost of the opt-in parallel engine
		c.deliverSubstream(roundSeed, txList, tx, recv)
		return
	}
	// Default engine, unchanged stream: fades are consumed listener-major
	// from one per-round rng (the loop below), so the engine keeps that
	// structure — only the attenuation lookup is cached. Restructuring
	// transmitter-major would reorder the rng draws and change results; see
	// the determinism contract in the type comment.
	c.rng.Reseed(roundSeed)
	rng := c.rng.Rand
	for v := range c.pts {
		recv[v] = -1
		if tx[v] || len(txList) == 0 {
			continue
		}
		best, bestU, total := -1.0, -1, 0.0
		for _, u := range txList {
			s := c.signal(u, v) * expFade(rng)
			total += s
			if s > best {
				best, bestU = s, u
			}
		}
		if ratio := c.params.SINR(best, total-best); ratio >= c.params.Beta {
			recv[v] = bestU
			if c.observer != nil {
				c.observer.OnReception(v, bestU, ratio, ratio-c.params.Beta)
			}
		}
	}
}

// deliverSubstream is the ε/parallel engine for the faded channel. The
// default engine draws every fade from one per-round stream in
// listener-major order — an order the pruning and tiling modes cannot
// reproduce (each listener consumes a data-dependent number of draws). This
// engine instead derives one fade substream per listener,
// Split(Split(seed, round), listener), and draws along it in ascending
// near-transmitter order. Results are deterministic in (seed, round,
// deployment, tx) and independent of worker count and gain-cache mode, but
// they are a *different* (equally distributed) stream from the default
// engine's — documented in DESIGN.md §8.
func (c *RayleighChannel) deliverSubstream(roundSeed uint64, txList []int, tx []bool, recv []int) {
	if len(txList) == 0 {
		for v := range recv {
			recv[v] = -1
		}
		return
	}
	if c.ff != nil {
		c.ff.prepareRound(txList)
	}
	if c.par > 1 {
		mDeliveriesParallel.Inc()
		runTiles(len(c.pts), c.par, func(w, lo, hi int) {
			c.accumulateSubstreamTile(w, lo, hi, roundSeed, tx, txList)
		})
	} else {
		n := len(c.pts)
		for lo := 0; lo < n; lo += deliverTile {
			c.accumulateSubstreamTile(0, lo, min(lo+deliverTile, n), roundSeed, tx, txList)
		}
	}
	finalizeReceptions(c.params, &c.scratch, c.observer, tx, recv)
}

// accumulateSubstreamTile is pass one of the substream engine over listeners
// [lo, hi): reseed the worker's rng to the listener's substream, collect the
// near set (the full transmitter list when pruning is off), and accumulate
// faded signals in ascending transmitter order.
//
//crlint:hotpath
func (c *RayleighChannel) accumulateSubstreamTile(worker, lo, hi int, roundSeed uint64, tx []bool, txList []int) {
	totals, best, bestU := c.scratch.totals, c.scratch.best, c.scratch.bestU
	pruned := int64(0)
	for v := lo; v < hi; v++ {
		totals[v], best[v], bestU[v] = 0, -1, -1
		if tx[v] {
			continue
		}
		near := txList
		if c.ff != nil {
			near = c.ff.nearSet(worker, v, tx, txList)
			pruned += int64(len(txList) - len(near))
		}
		c.rngs[worker].Reseed(xrand.Split(roundSeed, uint64(v)))
		rng := c.rngs[worker].Rand
		b, bu, t := -1.0, -1, 0.0
		for _, u := range near {
			s := c.signal(u, v) * expFade(rng)
			t += s
			if s > b {
				b, bu = s, u
			}
		}
		totals[v], best[v], bestU[v] = t, b, bu
	}
	if pruned > 0 {
		mFarFieldPrunedTx.Add(pruned)
	}
}

// expFade draws a unit-mean exponential fade.
//
//crlint:hotpath
func expFade(rng *rand.Rand) float64 {
	// Inverse-CDF sampling; 1−U avoids log(0).
	return -math.Log(1 - rng.Float64())
}
