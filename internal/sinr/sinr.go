// Package sinr implements the paper's fading channel: reception is governed
// by the signal-to-interference-and-noise-ratio equation (Equation 1 of
// Section 2). A listening node v receives a message from transmitter u, in a
// round where the nodes of I also transmit, iff
//
//	SINR(u, v, I) = (P/d(u,v)^α) / (N + Σ_{w∈I} P/d(w,v)^α) ≥ β,
//
// where P is the fixed transmission power, α > 2 the path-loss exponent,
// N ≥ 0 the ambient noise, and β the decoding threshold.
//
// The package provides the deterministic geometric-fading channel of the
// paper plus an optional Rayleigh-faded extension (per-round exponential
// signal scaling) used by robustness experiments.
package sinr

import (
	"errors"
	"fmt"
	"math"

	"fadingcr/internal/geom"
)

// DefaultSingleHopMargin is the paper's constant c in the single-hop
// condition P > c·β·N·d(u,v)^α; Section 2 notes c ≥ 4 suffices.
const DefaultSingleHopMargin = 4

// Params collects the physical-layer constants of the SINR equation.
type Params struct {
	// Alpha is the path-loss exponent. The paper's analysis requires
	// Alpha > 2; the simulator accepts any Alpha > 0 so experiments can
	// probe the α → 2 degradation.
	Alpha float64
	// Beta is the SINR decoding threshold β > 0. With Beta ≥ 1 at most one
	// transmitter can be decoded by any listener in a round.
	Beta float64
	// Noise is the ambient noise N ≥ 0.
	Noise float64
	// Power is the fixed transmission power P > 0 shared by all nodes.
	Power float64
}

// Validate reports whether the parameters are usable by the channel.
func (p Params) Validate() error {
	switch {
	case !(p.Alpha > 0) || math.IsInf(p.Alpha, 1):
		return fmt.Errorf("sinr: alpha %v must be positive and finite", p.Alpha)
	case !(p.Beta > 0) || math.IsInf(p.Beta, 1):
		return fmt.Errorf("sinr: beta %v must be positive and finite", p.Beta)
	case p.Noise < 0 || math.IsNaN(p.Noise) || math.IsInf(p.Noise, 1):
		return fmt.Errorf("sinr: noise %v must be in [0, ∞)", p.Noise)
	case !(p.Power > 0) || math.IsInf(p.Power, 1):
		return fmt.Errorf("sinr: power %v must be positive and finite", p.Power)
	}
	return nil
}

// Signal returns the received signal strength P/d^α of a transmission over
// distance d > 0.
func (p Params) Signal(d float64) float64 {
	return p.Power * math.Pow(d, -p.Alpha)
}

// signalFromDist2 is Signal computed from a squared distance, saving a sqrt.
func (p Params) signalFromDist2(d2 float64) float64 {
	return p.Power * attenuation(d2, p.Alpha)
}

// attenuation returns d2^{-α/2} = d^{-α} with fast paths for the common
// path-loss exponents (α ∈ {2, 3, 4, 6}); the SINR delivery loop spends
// essentially all its time here, and the fast paths are ~5× cheaper than
// math.Pow.
//
//crlint:hotpath
func attenuation(d2, alpha float64) float64 {
	switch alpha {
	case 2:
		return 1 / d2
	case 3:
		return 1 / (d2 * math.Sqrt(d2))
	case 4:
		return 1 / (d2 * d2)
	case 6:
		return 1 / (d2 * d2 * d2)
	default:
		return math.Pow(d2, -alpha/2)
	}
}

// SINR returns the ratio signal/(Noise + interference).
func (p Params) SINR(signal, interference float64) float64 {
	return signal / (p.Noise + interference)
}

// powerCondition is the right-hand side margin·β·N·maxDist^α of the paper's
// single-hop condition, shared by MinSingleHopPower and SingleHopFeasible so
// the formula cannot drift between the derivation and the check.
func powerCondition(alpha, beta, noise, maxDist, margin float64) float64 {
	return margin * beta * noise * math.Pow(maxDist, alpha)
}

// MinSingleHopPower returns the smallest power satisfying the paper's
// single-hop condition P > margin·β·N·maxDist^α with a small head-room
// factor, so that every node pair can communicate in the absence of
// interference with a constant-factor SINR margin. For N = 0 the condition
// is vacuous and the function returns 1.
func MinSingleHopPower(alpha, beta, noise, maxDist, margin float64) float64 {
	if noise == 0 {
		return 1
	}
	return powerCondition(alpha, beta, noise, maxDist, margin) * 1.01
}

// SingleHopFeasible reports whether the parameters satisfy the single-hop
// condition P > margin·β·N·maxDist^α for the given maximum link length.
func (p Params) SingleHopFeasible(maxDist, margin float64) bool {
	return p.Power > powerCondition(p.Alpha, p.Beta, p.Noise, maxDist, margin)
}

// A ReceptionObserver sees every decoded reception at the moment the
// delivery engine commits it: listener v decodes the message of transmitter
// u with the achieved ratio sinr ≥ β and margin = sinr − β. Within a round,
// observers are invoked in ascending listener order by every engine (the
// cached, on-the-fly, and Rayleigh delivery loops all finalise listeners in
// index order), so the call sequence is deterministic and engine-independent.
//
// The hook exists for tracing and never feeds back into delivery: observers
// must not call back into the channel, and a nil observer (the default)
// costs one pointer test per decode — the hot paths stay allocation-free.
type ReceptionObserver interface {
	OnReception(listener, from int, sinr, margin float64)
}

// Channel is the deterministic SINR channel over a fixed deployment. It is
// not safe for concurrent use (it owns reusable delivery scratch buffers);
// create one channel per goroutine.
type Channel struct {
	params   Params
	pts      []geom.Point
	gains    *gainCache // nil: compute attenuations on the fly
	ff       *farField  // nil: exact delivery (the default)
	par      int        // ≥ 2: intra-round parallel workers
	scratch  deliverScratch
	observer ReceptionObserver
}

// New builds a channel for the given parameters and node positions. It
// returns an error if the parameters are invalid or fewer than one node is
// given. By default the channel caches the pairwise gain matrix (see the
// gain-cache notes in this package) up to DefaultGainCacheCap; options
// adjust that policy without ever changing delivery results. The
// WithFarFieldEps option selects the approximate ε far-field engine (see
// farfield.go), the only option that can change receptions — within its
// documented error bound.
func New(params Params, pts []geom.Point, opts ...Option) (*Channel, error) {
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
	c := &Channel{
		params:  params,
		pts:     cp,
		gains:   newGainCache(cp, params.Alpha, ec),
		par:     ec.workers(),
		scratch: newDeliverScratch(len(cp)),
	}
	if ec.farFieldEps > 0 {
		c.ff, err = newFarField(cp, params.Alpha, params.Noise, params.Power, params.Power, ec.farFieldEps, c.par)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// N returns the number of nodes on the channel.
func (c *Channel) N() int { return len(c.pts) }

// Params returns the channel's physical-layer parameters.
func (c *Channel) Params() Params { return c.params }

// GainCacheBytes returns the footprint of the channel's cached gain
// matrix, or 0 when the channel computes attenuations on the fly.
func (c *Channel) GainCacheBytes() int64 {
	if c.gains == nil {
		return 0
	}
	return c.gains.bytes()
}

// SetObserver installs (or, with nil, removes) the reception observer.
// Observation never changes delivery results — the engine computes the
// identical float sequence with or without an observer.
func (c *Channel) SetObserver(o ReceptionObserver) { c.observer = o }

// signal returns the received signal strength of transmitter u at listener
// v, from the cached gain row when available. Both branches evaluate the
// identical expression Power·d(u,v)^{-α}, so results are bit-equal.
//
//crlint:hotpath
func (c *Channel) signal(u, v int) float64 {
	if c.gains != nil {
		return c.params.Power * c.gains.at(u, v)
	}
	return c.params.signalFromDist2(c.pts[u].Dist2(c.pts[v]))
}

// Deliver computes one round of reception. tx[u] reports whether node u
// transmits this round; recv must have length N and is filled so that
// recv[v] is the index of the transmitter whose message v received, or −1 if
// v received nothing (transmitters always have recv[v] = −1: a node cannot
// listen while transmitting). When Beta < 1 several transmitters may clear
// the SINR threshold at one listener; the channel then delivers the
// strongest.
//
//crlint:hotpath
func (c *Channel) Deliver(tx []bool, recv []int) {
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
	finalizeReceptions(c.params, &c.scratch, c.observer, tx, recv)
}

// deliverParallel fans pass one out over runTiles. It is deliberately not
// hotpath-annotated: the kernel closures and goroutines allocate O(workers)
// per round, the documented cost of the parallel option.
func (c *Channel) deliverParallel(txList []int, tx []bool) {
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

// accumulateCachedTile is pass one of the transmitter-major cached engine
// over listeners [lo, hi): it streams each transmitter's cached gain-row
// tile through the per-listener accumulators (running interference total,
// strongest signal and its sender). Each listener sees its signals in
// ascending transmitter order with the first strict maximum winning — the
// exact per-listener float operations of the on-the-fly loop — so both
// engines produce bit-identical receptions; the tile width only reorders
// work *across* listeners, never within one. Diagonal gains are +Inf but
// only reach accumulators of transmitting listeners, which the finalize
// pass masks to −1.
//
//crlint:hotpath
func (c *Channel) accumulateCachedTile(lo, hi int, txList []int) {
	totals, best, bestU := c.scratch.totals, c.scratch.best, c.scratch.bestU
	for v := lo; v < hi; v++ {
		totals[v], best[v], bestU[v] = 0, -1, -1
	}
	power := c.params.Power
	for _, u := range txList {
		row := c.gains.row(u)
		for v := lo; v < hi; v++ {
			s := power * row[v]
			totals[v] += s
			if s > best[v] {
				best[v], bestU[v] = s, u
			}
		}
	}
}

// accumulateFlyTile is pass one of the on-the-fly engine over listeners
// [lo, hi): the classic listener-major scalar loop, restricted to one tile
// and parked in the shared accumulator arrays for the sequential finalize
// pass. The per-listener float sequence is exactly the pre-tiling code's.
//
//crlint:hotpath
func (c *Channel) accumulateFlyTile(lo, hi int, txList []int, tx []bool) {
	totals, best, bestU := c.scratch.totals, c.scratch.best, c.scratch.bestU
	for v := lo; v < hi; v++ {
		totals[v], best[v], bestU[v] = 0, -1, -1
		if tx[v] {
			continue
		}
		b, bu, t := -1.0, -1, 0.0
		for _, u := range txList {
			s := c.params.signalFromDist2(c.pts[u].Dist2(c.pts[v]))
			t += s
			if s > b {
				b, bu = s, u
			}
		}
		totals[v], best[v], bestU[v] = t, b, bu
	}
}

// accumulateFarTile is pass one of the ε far-field engine over listeners
// [lo, hi): per listener, collect the near transmitter set from the spatial
// index (exact below farFieldSmallTx transmitters), then sum it exactly in
// ascending transmitter index. The worker index selects the near-set
// scratch buffer, so concurrent tiles never share one.
//
//crlint:hotpath
func (c *Channel) accumulateFarTile(worker, lo, hi int, tx []bool, txList []int) {
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

// finalizeReceptions is pass two of every engine: apply the SINR threshold
// per listener in ascending index order, writing receptions and invoking the
// observer. It is always sequential — the observer-ordering contract and
// byte-identical parallel delivery both depend on that.
//
//crlint:hotpath
func finalizeReceptions(params Params, s *deliverScratch, obs ReceptionObserver, tx []bool, recv []int) {
	totals, best, bestU := s.totals, s.best, s.bestU
	for v := range recv {
		recv[v] = -1
		if tx[v] || bestU[v] < 0 {
			continue
		}
		// Interference for the strongest candidate excludes its own signal.
		if ratio := params.SINR(best[v], totals[v]-best[v]); ratio >= params.Beta {
			recv[v] = bestU[v]
			if obs != nil {
				obs.OnReception(v, bestU[v], ratio, ratio-params.Beta)
			}
		}
	}
}

// Receivable returns every transmitter whose SINR at listener v clears the
// threshold (useful with Beta < 1, where more than one can). It returns nil
// when v itself transmits.
func (c *Channel) Receivable(tx []bool, v int) []int {
	if tx[v] {
		return nil
	}
	txList := c.scratch.indices(tx)
	signals := c.scratch.signals[:0]
	total := 0.0
	for _, u := range txList {
		s := c.signal(u, v)
		signals = append(signals, s)
		total += s
	}
	c.scratch.signals = signals
	var out []int
	for i, u := range txList {
		if c.params.SINR(signals[i], total-signals[i]) >= c.params.Beta {
			out = append(out, u)
		}
	}
	return out
}

// InterferenceAt returns Σ_{u ∈ tx} P/d(u,v)^α, the total signal energy
// arriving at node v from the given transmitter set (including v's own
// signal if v transmits).
func (c *Channel) InterferenceAt(tx []bool, v int) float64 {
	total := 0.0
	for u := range c.pts {
		if !tx[u] || u == v {
			continue
		}
		total += c.signal(u, v)
	}
	return total
}
