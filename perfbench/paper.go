package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"time"

	"fadingcr/internal/experiments"
	"fadingcr/internal/runner"
)

// paperParallelism is the trial parallelism of the paper suite: crbench's
// default on the 2-vCPU reference machine, fixed so results compare across
// machines.
const paperParallelism = 2

// paperCounts must repeat exactly for one seed.
var paperCounts = []string{
	"runner.runs", "runner.trials_completed", "sinr.gaincache_built", "sinr.gaincache_fallback",
	"sinr.deliveries", "sim.runs", "sim.rounds", "sim.transmissions",
}

// paperPass is one reproduction of the paper: every experiment's Run and
// RenderTables, as crbench does them.
type paperPass struct {
	d       delta
	out     string
	expS    map[string]float64 // Run+RenderTables per experiment
	renderS float64
	opCPU   []float64 // CPU ms per experiment
}

func runPaper(seed uint64, tr *tracer) (paperPass, error) {
	selected, cfg, err := experiments.ConfigFromSpec(experiments.Spec{IDs: "all", Seed: seed})
	if err != nil {
		return paperPass{}, err
	}
	cfg.Parallelism = paperParallelism
	p := paperPass{expS: map[string]float64{}}
	var buf bytes.Buffer
	root := tr.begin("paper-suite", "bench", 0)
	var cur int // the running experiment's span
	if tr != nil {
		// Loop boundaries from outside: the runner reports each loop's
		// elapsed time with its last trial.
		cfg.Progress = func(pr runner.Progress) {
			if pr.Done == pr.Total {
				now := time.Now()
				tr.add("runner.loop", "runner", cur, now.Add(-pr.Elapsed), now)
			}
		}
	}
	start := takeSample()
	for _, e := range selected {
		t0, c0 := time.Now(), processCPU()
		cur = tr.begin("experiments.Run "+e.ID, "experiments", root)
		tables, err := e.Run(cfg)
		tr.end(cur)
		if err != nil {
			return paperPass{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		t1 := time.Now()
		rs := tr.begin("experiments.RenderTables "+e.ID, "render", root)
		err = experiments.RenderTables(&buf, e, tables, false)
		tr.end(rs)
		if err != nil {
			return paperPass{}, err
		}
		t2 := time.Now()
		p.expS[e.ID] = t2.Sub(t0).Seconds()
		p.renderS += t2.Sub(t1).Seconds()
		p.opCPU = append(p.opCPU, cpuSince(c0))
	}
	p.d = since(start)
	tr.end(root)
	p.out = buf.String()
	return p, nil
}

// paperSetupS is the median CPU time crbench's own set-up takes:
// resolving the spec into the experiment list and a ready Config.
func paperSetupS(seed uint64) (float64, error) {
	const batches, per = 15, 500
	times := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		c0 := processCPU()
		for i := 0; i < per; i++ {
			if _, _, err := experiments.ConfigFromSpec(experiments.Spec{IDs: "all", Seed: seed}); err != nil {
				return 0, err
			}
		}
		times = append(times, (processCPU()-c0)/per)
	}
	return median(times), nil
}

// checkPaper compares every experiment block with the recorded digests of
// the input set (and, for seed 7, with results_full.txt byte for byte),
// and the exact counts with the recorded ones. It returns the experiments
// attempted and failed, and the problems that make the run incorrect.
func checkPaper(o options, set uint64, p paperPass) (attempted, failed int64, problems []string, err error) {
	ids, blocks := splitBlocks(p.out)
	counts := exactCounts(p.d, paperCounts...)
	var bad []string
	if set == 7 {
		full, err := resultsFullBlocks("results_full.txt")
		if err != nil {
			return 0, 0, nil, err
		}
		bad = blockMismatches(blocks, full, sortedKeys(full))
	}
	if o.record {
		if len(bad) > 0 {
			return 0, 0, nil, fmt.Errorf("not recording: output differs from results_full.txt in %v", bad)
		}
		e := &refEntry{Blocks: map[string]string{}, Counts: counts}
		for id, b := range blocks {
			e.Blocks[id] = digest([]byte(b))
		}
		return int64(len(ids)), 0, nil, storeReference(o.refPath, "paper-suite", set, e)
	}
	ref, err := loadReference(o.refPath)
	if err != nil {
		return 0, 0, nil, err
	}
	e := ref.entry("paper-suite", set)
	if e == nil {
		return 0, 0, nil, fmt.Errorf("no recorded reference for input set %d", set)
	}
	want := e.Blocks
	got := map[string]string{}
	for id, b := range blocks {
		got[id] = digest([]byte(b))
	}
	order := sortedKeys(want)
	for _, id := range blockMismatches(got, want, order) {
		if !slices.Contains(bad, id) {
			bad = append(bad, id)
		}
	}
	if c := countMismatches(counts, e.Counts); len(c) > 0 {
		problems = append(problems, "counts: "+strings.Join(c, ", "))
	}
	if len(bad) > 0 {
		fmt.Printf("perfbench paper-suite: experiment output differs from the reference: %s\n", strings.Join(bad, ","))
	}
	return int64(len(order)), int64(len(bad)), problems, nil
}

func runPaperSuite(o options) (result, error) {
	set := inputSet(o.seed)
	setupS, err := paperSetupS(set)
	if err != nil {
		return result{}, err
	}
	plain, err := runPaper(set, nil)
	if err != nil {
		return result{}, err
	}
	attempted, failed, problems, err := checkPaper(o, set, plain)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: attempted, Failed: failed}
	if !o.trace {
		res.Metrics = e2e(plain.d, setupS, plain.opCPU)
		fmt.Printf("perfbench paper-suite: input set %d, %d experiments, wall_s %.3f, steal %.1f%%, peak_rss_mb %.1f (bimodal under 2 workers, not gated)\n",
			set, len(plain.opCPU), plain.d.wallS, plain.d.stealPct, peakRSSMB())
		res.Correct = len(problems) == 0
		report(problems)
		return res, nil
	}

	traced, tr, buckets, err := profiledPass(o, "paper-suite", func(tr *tracer) (paperPass, error) {
		return runPaper(set, tr)
	})
	if err != nil {
		return result{}, err
	}
	if traced.out != plain.out {
		problems = append(problems, "traced pass output differs from the untraced pass")
	}
	if c := countMismatches(exactCounts(traced.d, paperCounts...), exactCounts(plain.d, paperCounts...)); len(c) > 0 {
		problems = append(problems, "traced pass counts: "+strings.Join(c, ", "))
	}
	rows, spanned := tr.selfTimes()
	if err := saveReport(o, "paper-suite", tr, rows, spanned, traced.d, plain.d, buckets); err != nil {
		return result{}, err
	}
	v := map[string]float64{}
	counterLayers(v, traced.d)
	for id, s := range traced.expS {
		v["experiments."+id+"_s"] = s
	}
	v["experiments.render_s"] = traced.renderS
	v["runner.busy_share"] = share(traced.d.cpuS, traced.d.wallS*paperParallelism)
	res.Metrics = layerMetrics(buckets, v)
	runtimeLayer(res.Metrics, traced.d, plain.d)
	res.Correct = len(problems) == 0
	report(problems)
	return res, nil
}

// report prints the problems that make a run incorrect.
func report(problems []string) {
	for _, p := range problems {
		fmt.Println("perfbench: incorrect:", p)
	}
}
