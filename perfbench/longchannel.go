package main

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"fadingcr/internal/catalog"
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

// The long-channel workload is crsim's path at the paper's largest n: one
// uniform-disk deployment and SINR channel per deployment seed, then many
// sequential trials on that channel. Per deployment it runs lcFixed trials
// of the paper's fixed-probability algorithm (dense transmit sets, about
// 18 rounds) and lcBackoff trials of binary exponential backoff (sparse,
// about 420 rounds). Backoff trials are under 5% of the ops, so the op
// percentiles are fixed-probability trials, while backoff makes about half
// of the Deliver calls. One deployment takes about a second on the
// reference machine, so -seconds is the deployment count.
const (
	lcNodes   = 2048
	lcFixed   = 50
	lcBackoff = 2
)

var lcCounts = []string{"sim.runs", "sim.rounds", "sim.transmissions", "sinr.deliveries", "sinr.gaincache_built"}

// lcTrial is one trial's checked outcome.
type lcTrial struct {
	algo string
	seed uint64
	res  sim.Result
}

// lcInputs lists a workload seed's deployment seeds and, per deployment,
// its trials (algorithm and seed); a pure function of the seed.
func lcInputs(set uint64, deployments int) (seeds []uint64, trials [][]lcTrial) {
	for j := 0; j < deployments; j++ {
		ds := mix(set, uint64(j))
		seeds = append(seeds, ds)
		var ts []lcTrial
		for t := 0; t < lcFixed+lcBackoff; t++ {
			algo := "fixed"
			// Backoff trials are spread through the batch, not bunched.
			if t%((lcFixed+lcBackoff)/lcBackoff) == lcFixed/lcBackoff {
				algo = "backoff"
			}
			ts = append(ts, lcTrial{algo: algo, seed: mix(ds, uint64(t)+1)})
		}
		trials = append(trials, ts)
	}
	return seeds, trials
}

// lcPass runs every deployment of the workload.
type lcPass struct {
	d        delta
	setupS   []float64 // deployment + channel build CPU, per deployment
	opCPU    []float64 // CPU ms per trial
	opWall   []float64 // ms per trial
	digests  []string  // per deployment
	deliverS float64   // through the channel decorator (traced pass)
	delivers int64
}

func runLong(set uint64, deployments int, tr *tracer) (lcPass, error) {
	seeds, trials := lcInputs(set, deployments)
	var p lcPass
	root := tr.begin("long-channel", "bench", 0)
	start := takeSample()
	for j, ds := range seeds {
		c0 := processCPU()
		sp := tr.begin("geom.deploy", "geom", root)
		d, err := catalog.Deployment("disk", ds, lcNodes)
		tr.end(sp)
		if err != nil {
			return p, err
		}
		sp = tr.begin("sinr.build", "sinr.build", root)
		built, err := lcChannel(d, ds)
		tr.end(sp)
		if err != nil {
			return p, err
		}
		p.setupS = append(p.setupS, processCPU()-c0)
		ch := built
		var timed *timedChannel
		if tr != nil {
			timed = &timedChannel{inner: built, tr: tr}
			ch = timed
		}
		cfg := sim.Config{MaxRounds: catalog.DefaultMaxRounds(lcNodes)}
		for i := range trials[j] {
			t := &trials[j][i]
			b, err := catalog.Builder(t.algo, 0, lcNodes)
			if err != nil {
				return p, err
			}
			ts, cs := time.Now(), processCPU()
			sp := tr.begin("sim.run "+t.algo, "sim", root)
			if timed != nil {
				timed.parent = sp
			}
			t.res, err = sim.Run(ch, b, t.seed, cfg)
			tr.end(sp)
			if err != nil {
				return p, err
			}
			p.opCPU = append(p.opCPU, cpuSince(cs))
			p.opWall = append(p.opWall, ms(time.Since(ts)))
		}
		p.digests = append(p.digests, lcDigest(trials[j]))
		if timed != nil {
			p.deliverS += timed.busy.Seconds()
			p.delivers += timed.calls
		}
	}
	p.d = since(start)
	tr.end(root)
	return p, nil
}

// lcChannel builds the exact SINR channel crsim builds for a deployment.
func lcChannel(d *geom.Deployment, seed uint64) (sim.Channel, error) {
	params := sinr.DefaultParams()
	params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
	built, err := catalog.Channel("sinr", params, d, seed+1)
	if err != nil {
		return nil, err
	}
	return built.Channel, nil
}

// lcDigest hashes one deployment's trial outcomes in trial order.
func lcDigest(trials []lcTrial) string {
	var b []byte
	for _, t := range trials {
		solved := uint64(0)
		if t.res.Solved {
			solved = 1
		}
		for _, v := range []uint64{solved, uint64(t.res.Rounds), uint64(int64(t.res.Winner)), uint64(t.res.Transmissions)} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return digest(b)
}

// checkLong compares per-deployment outcome digests with the recorded ones
// (one op failure per differing trial batch counts every trial in it).
func checkLong(o options, set uint64, p lcPass) (failed int64, problems []string, err error) {
	counts := exactCounts(p.d, lcCounts...)
	if rounds := counts["sim.rounds"]; counts["sinr.deliveries"] != rounds {
		problems = append(problems, fmt.Sprintf("sinr.deliveries %d ≠ sim.rounds %d", counts["sinr.deliveries"], rounds))
	}
	if o.record {
		return 0, problems, storeReference(o.refPath, "long-channel", set, &refEntry{Deployments: p.digests})
	}
	ref, err := loadReference(o.refPath)
	if err != nil {
		return 0, nil, err
	}
	e := ref.entry("long-channel", set)
	if e == nil || len(e.Deployments) < len(p.digests) {
		return 0, nil, fmt.Errorf("input set %d has no recorded digests for %d deployments", set, len(p.digests))
	}
	var bad []string
	for j, dg := range p.digests {
		if dg != e.Deployments[j] {
			bad = append(bad, fmt.Sprint(j))
			failed += lcFixed + lcBackoff
		}
	}
	if len(bad) > 0 {
		fmt.Printf("perfbench long-channel: trial outcomes differ from the reference on deployments %s\n", strings.Join(bad, ","))
	}
	return failed, problems, nil
}

func runLongChannel(o options) (result, error) {
	set := inputSet(o.seed)
	deployments := o.seconds
	plain, err := runLong(set, deployments, nil)
	if err != nil {
		return result{}, err
	}
	failed, problems, err := checkLong(o, set, plain)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: int64(len(plain.opCPU)), Failed: failed}
	if !o.trace {
		res.Metrics = e2e(plain.d, median(plain.setupS), plain.opCPU)
		fmt.Printf("perfbench long-channel: input set %d, %d deployments, %d trials, op_cpu_p90_ms %.3f, wall_s %.3f, op_p50_ms %.3f, op_p90_ms %.3f, steal %.1f%%, peak_rss_mb %.1f\n",
			set, deployments, len(plain.opCPU), quantile(plain.opCPU, 0.9), plain.d.wallS,
			quantile(plain.opWall, 0.5), quantile(plain.opWall, 0.9), plain.d.stealPct, peakRSSMB())
		res.Correct = len(problems) == 0
		report(problems)
		return res, nil
	}

	traced, tr, buckets, err := profiledPass(o, "long-channel", func(tr *tracer) (lcPass, error) {
		return runLong(set, deployments, tr)
	})
	if err != nil {
		return result{}, err
	}
	if strings.Join(traced.digests, ",") != strings.Join(plain.digests, ",") {
		problems = append(problems, "traced pass outcomes differ from the untraced pass")
	}
	if c := countMismatches(exactCounts(traced.d, lcCounts...), exactCounts(plain.d, lcCounts...)); len(c) > 0 {
		problems = append(problems, "traced pass counts: "+strings.Join(c, ", "))
	}
	if traced.delivers != int64(traced.d.count("sinr.deliveries")) {
		problems = append(problems, "channel decorator saw a different Deliver count than sinr.deliveries")
	}
	rows, spanned := tr.selfTimes()
	if err := saveReport(o, "long-channel", tr, rows, spanned, traced.d, plain.d, buckets); err != nil {
		return result{}, err
	}
	v := map[string]float64{}
	counterLayers(v, traced.d)
	v["geom.deploys"] = float64(deployments)
	v["geom.deploy_s"] = layerSelf(rows, "geom")
	v["sinr.build_s"] = layerSelf(rows, "sinr.build")
	v["sinr.deliver_s"] = traced.deliverS
	v["sinr.deliver_us"] = 1e6 * share(traced.deliverS, float64(traced.delivers))
	v["sim.protocol_s"] = layerSelf(rows, "sim")
	v["sim.trial_cpu_p90_ms"] = quantile(traced.opCPU, 0.9)
	res.Metrics = layerMetrics(buckets, v)
	runtimeLayer(res.Metrics, traced.d, plain.d)
	res.Correct = len(problems) == 0
	report(problems)
	return res, nil
}
