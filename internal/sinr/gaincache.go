package sinr

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"fadingcr/internal/geom"
)

// The gain-cache delivery engine.
//
// A channel's node positions are immutable for its lifetime, so the geometric
// part of every SINR term — the attenuation d(u,v)^{-α} — is a constant of
// the deployment. New reserves the full pairwise attenuation matrix as a flat
// row-major []float64 (row u holds the gains from transmitter u to every
// listener) but fills nothing: the exact engine fills row u the first time u
// transmits, and Deliver then runs a transmitter-major two-pass accumulation
// over the cached rows instead of recomputing a math.Pow/sqrt per
// (transmitter, listener) pair per round. Protocols in this repository finish
// in O(log n + log R) rounds, so most channels never read most rows; filling
// on first transmission means a channel pays only for the rows it uses. The
// matrix costs 8·n² bytes; above the configured cap the channel
// transparently falls back to the on-the-fly engine. Both engines perform
// the per-listener floating-point operations in the same order (signals
// summed in ascending transmitter index, first strict maximum wins), and a
// filled entry is the very expression the on-the-fly engine evaluates, so
// every reception decision — and every experiment table derived from one —
// is bit-identical in every mode.

// DefaultGainCacheCap is the default memory cap for one channel's gain
// matrix: 64 MiB, enough to cache deployments up to n = 2896. Larger
// channels fall back to on-the-fly computation unless the cap is raised
// with WithGainCacheCap.
const DefaultGainCacheCap = 64 << 20

// deliverTile is the fixed listener-tile width of every accumulation engine.
// Pass one of Deliver processes listeners in [t·deliverTile, (t+1)·deliverTile)
// blocks: the cached engine streams each gain row one tile at a time so the
// per-listener accumulators stay cache-resident at any n, and the parallel
// option assigns tile t to worker t mod workers. The value is part of the
// determinism contract (DESIGN.md §8): the tile partition fixes the parallel
// work shape, and because every per-listener float sequence is confined to
// one tile, receptions are byte-identical at any worker count — but the
// constant itself must never silently change between releases that promise
// reproducibility.
const deliverTile = 2048

// MaxDeliverParallelism bounds WithDeliverParallelism; it exists to catch
// nonsense worker counts at option-validation time, not to size anything.
const MaxDeliverParallelism = 256

// engineConfig is the resolved delivery-engine configuration of a channel.
type engineConfig struct {
	cache       bool    // cache gain rows on first transmission
	cap         int64   // largest matrix to cache, in bytes
	farFieldEps float64 // > 0: ε far-field pruning mode
	parallel    int     // ≥ 2: intra-round parallel Deliver workers
}

// validate rejects resolved configurations outside the supported envelope.
func (ec engineConfig) validate() error {
	if ec.farFieldEps != 0 && (!(ec.farFieldEps > 0) || ec.farFieldEps >= 0.5) {
		return fmt.Errorf("sinr: far-field epsilon %v must be in (0, 0.5)", ec.farFieldEps)
	}
	if ec.parallel < 0 || ec.parallel > MaxDeliverParallelism {
		return fmt.Errorf("sinr: deliver parallelism %d must be in [0, %d]", ec.parallel, MaxDeliverParallelism)
	}
	return nil
}

// workers returns the effective worker count (0 and 1 both mean sequential).
func (ec engineConfig) workers() int {
	if ec.parallel < 1 {
		return 1
	}
	return ec.parallel
}

// Option configures a channel's delivery engine. Options never change
// delivery results, only how (and how fast) they are computed.
type Option func(*engineConfig)

// WithGainCache enables (the default) or disables the cached pairwise gain
// matrix. Disabled channels compute every attenuation on the fly.
func WithGainCache(enabled bool) Option {
	return func(ec *engineConfig) { ec.cache = enabled }
}

// WithGainCacheCap sets the largest gain matrix (in bytes, 8·n² for n nodes)
// a channel may cache; larger deployments fall back to on-the-fly
// computation. A non-positive cap removes the limit.
func WithGainCacheCap(bytes int64) Option {
	return func(ec *engineConfig) {
		if bytes <= 0 {
			ec.cap = math.MaxInt64
			return
		}
		ec.cap = bytes
	}
}

// WithFarFieldEps enables the ε far-field pruning engine: per listener, only
// transmitters in nearby spatial-index cells are summed exactly (in ascending
// transmitter index, like every other engine), and the remaining far
// transmitters are dropped once a conservative upper bound proves their
// aggregate contribution is at most eps·(Noise + near interference). The
// pruning decision uses distance bounds only — never accumulated floats — so
// it is deterministic and identical in cached and on-the-fly modes. eps must
// be in (0, 0.5); 0 restores the exact engine. See DESIGN.md §8 for the
// precise error bound.
func WithFarFieldEps(eps float64) Option {
	return func(ec *engineConfig) { ec.farFieldEps = eps }
}

// WithDeliverParallelism sets the intra-round worker count of Deliver.
// Workers process disjoint fixed-shape listener tiles (tile t → worker
// t mod workers) and the threshold/observer pass stays sequential in
// ascending listener order, so receptions are byte-identical at any worker
// count. 0 and 1 both select the sequential engine; parallel delivery
// allocates O(workers) per round, so the zero-allocation hot-path guarantee
// applies to the sequential default only.
func WithDeliverParallelism(workers int) Option {
	return func(ec *engineConfig) { ec.parallel = workers }
}

// GainCacheOptions translates a CLI-style mode string into engine options:
// "auto" (or "") caches up to DefaultGainCacheCap, "on" caches regardless of
// size, "off" forces on-the-fly computation.
func GainCacheOptions(mode string) ([]Option, error) {
	switch mode {
	case "", "auto":
		return nil, nil
	case "on":
		return []Option{WithGainCache(true), WithGainCacheCap(0)}, nil
	case "off":
		return []Option{WithGainCache(false)}, nil
	default:
		return nil, fmt.Errorf("sinr: unknown gain-cache mode %q (want auto|on|off)", mode)
	}
}

// EngineOptions translates the full CLI-style engine configuration — the
// gain-cache mode plus the -farfield-eps and -sinr-parallel knobs — into
// channel options, validating ranges up front so flag errors surface before
// a channel is half-built. farfieldEps 0 and parallel 0 leave the defaults.
func EngineOptions(gainCacheMode string, farfieldEps float64, parallel int) ([]Option, error) {
	opts, err := GainCacheOptions(gainCacheMode)
	if err != nil {
		return nil, err
	}
	if farfieldEps != 0 {
		if !(farfieldEps > 0) || farfieldEps >= 0.5 {
			return nil, fmt.Errorf("sinr: far-field epsilon %v must be in (0, 0.5)", farfieldEps)
		}
		opts = append(opts, WithFarFieldEps(farfieldEps))
	}
	if parallel != 0 {
		if parallel < 0 || parallel > MaxDeliverParallelism {
			return nil, fmt.Errorf("sinr: deliver parallelism %d must be in [0, %d]", parallel, MaxDeliverParallelism)
		}
		opts = append(opts, WithDeliverParallelism(parallel))
	}
	return opts, nil
}

// resolveEngine applies options over the defaults and validates the result.
func resolveEngine(opts []Option) (engineConfig, error) {
	ec := engineConfig{cache: true, cap: DefaultGainCacheCap}
	for _, o := range opts {
		o(&ec)
	}
	if err := ec.validate(); err != nil {
		return engineConfig{}, err
	}
	return ec, nil
}

// gainCache is the attenuation matrix of a deployment, g[u*n+v] =
// d(u,v)^{-α}, filled one transmitter row at a time. The diagonal is +Inf
// (zero distance); it is only ever read for transmitting listeners, whose
// receptions are masked.
type gainCache struct {
	n      int
	alpha  float64
	pts    []geom.Point
	g      []float64
	filled []bool // filled[u]: row u holds its gains
}

// fill computes the rows of every transmitter in txList that has not
// transmitted before. It runs sequentially before any tile kernel reads a
// row, so parallel delivery only ever reads the matrix.
//
//crlint:hotpath
func (gc *gainCache) fill(txList []int) {
	for _, u := range txList {
		if gc.filled[u] {
			continue
		}
		row, pu := gc.row(u), gc.pts[u]
		for v, pv := range gc.pts {
			row[v] = attenuation(pu.Dist2(pv), gc.alpha)
		}
		gc.filled[u] = true
	}
}

// row returns the gains from transmitter u to every listener; callers fill
// the row first.
func (gc *gainCache) row(u int) []float64 {
	return gc.g[u*gc.n : (u+1)*gc.n]
}

// at returns the gain from transmitter u to listener v: the cached entry
// when row u is filled, otherwise the same expression computed on the spot.
//
//crlint:hotpath
func (gc *gainCache) at(u, v int) float64 {
	if gc.filled[u] {
		return gc.g[u*gc.n+v]
	}
	return attenuation(gc.pts[u].Dist2(gc.pts[v]), gc.alpha)
}

// bytes returns the matrix footprint.
func (gc *gainCache) bytes() int64 { return int64(gc.n) * int64(gc.n) * 8 }

// gainCacheWarned makes the over-cap fallback warning fire at most once per
// process: n=100k runs would otherwise print one line per trial channel.
// Tests reset it (and redirect gainCacheWarnTo) to capture the message.
var (
	gainCacheWarned atomic.Bool
	gainCacheWarnTo io.Writer = os.Stderr
	gainCacheWarnMu sync.Mutex
)

// warnGainCacheOverCap emits the one-time over-cap diagnostic. Silent
// fallback was a footgun at large n: the run quietly switches to the O(n²)
// on-the-fly engine and only the sinr.gaincache_fallback metric records why.
func warnGainCacheOverCap(n int, need, cap int64) {
	if !gainCacheWarned.CompareAndSwap(false, true) {
		return
	}
	gainCacheWarnMu.Lock()
	defer gainCacheWarnMu.Unlock()
	fmt.Fprintf(gainCacheWarnTo,
		"sinr: gain cache disabled for n=%d (matrix %s exceeds cap %s); delivery falls back to the slower on-the-fly engine. Raise the cap (WithGainCacheCap / -gaincache on) or enable far-field pruning (-farfield-eps) for large deployments. [warned once]\n",
		n, FormatBytes(need), FormatBytes(cap))
}

// newGainCache reserves the matrix, or returns nil when the engine
// configuration disables caching or the matrix would exceed the cap. No row
// is filled until its transmitter first transmits (see fill).
func newGainCache(pts []geom.Point, alpha float64, ec engineConfig) *gainCache {
	n := len(pts)
	if !ec.cache {
		mGainCacheFallback.Inc()
		return nil
	}
	if need := int64(n) * int64(n) * 8; need > ec.cap {
		mGainCacheFallback.Inc()
		warnGainCacheOverCap(n, need, ec.cap)
		return nil
	}
	gc := &gainCache{n: n, alpha: alpha, pts: pts, g: make([]float64, n*n), filled: make([]bool, n)}
	mGainCacheBuilt.Inc()
	mGainCacheMaxBytes.SetMax(gc.bytes())
	return gc
}

// deliverScratch holds the channel-owned buffers a steady-state Deliver
// reuses so it performs zero allocations: the transmitter index list, the
// per-listener running interference totals, and the per-listener strongest
// signal and its sender. Sharing the scratch is why channels are not safe
// for concurrent use.
type deliverScratch struct {
	txList  []int
	totals  []float64
	best    []float64
	bestU   []int
	signals []float64
}

// newDeliverScratch preallocates every buffer at channel-construction time.
// All engines now share the tiled accumulator arrays (pass one fills
// totals/best/bestU per listener tile, pass two thresholds sequentially), so
// every buffer is always allocated: 40 bytes per node.
func newDeliverScratch(n int) deliverScratch {
	return deliverScratch{
		txList:  make([]int, 0, n),
		signals: make([]float64, 0, n),
		totals:  make([]float64, n),
		best:    make([]float64, n),
		bestU:   make([]int, n),
	}
}

// indices collects the transmitting node indices into the reusable list.
//
//crlint:hotpath
func (s *deliverScratch) indices(tx []bool) []int {
	out := s.txList[:0]
	for u, t := range tx {
		if t {
			out = append(out, u)
		}
	}
	s.txList = out
	return out
}

// GainCacheStats is a snapshot of the process-wide gain-cache counters.
type GainCacheStats struct {
	// Cached counts channels built with a gain matrix.
	Cached int64
	// Fallback counts channels that computed attenuations on the fly
	// (cache disabled or matrix over the memory cap).
	Fallback int64
	// MaxBytes is the largest single matrix built.
	MaxBytes int64
}

// ReadGainCacheStats snapshots the counters. They are cumulative for the
// process; callers wanting per-run numbers should difference two snapshots.
// The counters are the sinr.gaincache_* metrics of internal/obs (this
// function predates the metrics registry and is kept as its façade), so
// they stop advancing while obs.SetEnabled(false) is in effect.
func ReadGainCacheStats() GainCacheStats {
	return GainCacheStats{
		Cached:   mGainCacheBuilt.Load(),
		Fallback: mGainCacheFallback.Load(),
		MaxBytes: mGainCacheMaxBytes.Load(),
	}
}

// String renders the snapshot for a summary line, e.g.
// "142 cached / 0 fallback, max 8.0 MiB".
func (s GainCacheStats) String() string {
	return fmt.Sprintf("%d cached / %d fallback, max %s", s.Cached, s.Fallback, FormatBytes(s.MaxBytes))
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
