package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"fadingcr/internal/experiments"
	"fadingcr/internal/serve"
	"fadingcr/internal/shard"
)

// The fleet workload is the service stack in one process: a crserve daemon
// (2 workers, job parallelism 1) and a shard.Coordinator with two
// shard.Endpoint executors, each on its own HTTP transport. The spec is the
// quick 18-experiment suite in fleetShards shards. Every fresh seed gets
// one plain crserve job and one sharded request (the op); after each fresh
// seed come fleetHits repeats of earlier seeds, which the daemon serves
// from its result cache. A fresh seed takes about two seconds on the
// reference machine, so -seconds sets fresh = seconds/2.
const (
	fleetShards = 8
	fleetHits   = 2
	fleetSetups = 15
	// fleetCacheCap holds every job of a run (10 per fresh seed), so a
	// repeat is always a cache hit, never an eviction miss.
	fleetCacheCap = 4096
)

// fleet is a running daemon plus its clients.
type fleet struct {
	daemon *serve.Daemon
	url    string
	plain  *http.Client
	execs  []*timedExecutor
	coord  shard.Coordinator
}

func startFleet(tr *tracer) (*fleet, error) {
	d, err := serve.StartDaemon(serve.DaemonConfig{
		Addr:     "127.0.0.1:0",
		Executor: serve.Options{Workers: 2, JobParallelism: 1, CacheEntries: fleetCacheCap},
	})
	if err != nil {
		return nil, err
	}
	f := &fleet{daemon: d, url: "http://" + d.Addr().String(), plain: &http.Client{Transport: &http.Transport{}}}
	for i := 0; i < 2; i++ {
		ep := &shard.Endpoint{URL: f.url, Client: &http.Client{Transport: &http.Transport{}}}
		f.execs = append(f.execs, &timedExecutor{inner: ep, tr: tr})
		f.coord.Executors = append(f.coord.Executors, f.execs[i])
	}
	// Ready means every client has an open connection to a ready daemon.
	for _, c := range f.clients() {
		if err := getOK(c, f.url+"/readyz"); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) clients() []*http.Client {
	cs := []*http.Client{f.plain}
	for _, e := range f.execs {
		cs = append(cs, e.inner.(*shard.Endpoint).Client)
	}
	return cs
}

func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.daemon.Shutdown(ctx)
	for _, c := range f.clients() {
		c.CloseIdleConnections()
	}
	return err
}

func getOK(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// plainJob runs the unsharded spec as one crserve job over HTTP: submit,
// follow the stream to its end, fetch the result body.
func (f *fleet) plainJob(seed uint64) ([]byte, error) {
	spec, _ := json.Marshal(map[string]any{"experiment": "all", "quick": true, "seed": seed})
	resp, err := f.plain.Post(f.url+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("submit: %s", resp.Status)
	}
	if err := getOK(f.plain, f.url+"/v1/jobs/"+st.ID+"/stream"); err != nil {
		return nil, err
	}
	resp, err = f.plain.Get(f.url + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: %s", resp.Status)
	}
	return body, err
}

// sharded runs the spec through the coordinator and assembles the tables.
func (f *fleet) sharded(seed uint64, tr *tracer, parent int) (out []byte, coordS, assembleS float64, err error) {
	req := shard.Request{Spec: experiments.Spec{IDs: "all", Seed: seed, Quick: true}, Shards: fleetShards}
	ctx := context.Background()
	sp := tr.begin("shard.coordinate", "shard.coordinate", parent)
	for _, e := range f.execs {
		e.setParent(sp)
	}
	t0 := time.Now()
	merged, err := f.coord.Run(ctx, req)
	t1 := time.Now()
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	var buf bytes.Buffer
	sp = tr.begin("shard.assemble", "shard.assemble", parent)
	err = shard.Assemble(ctx, &buf, req, merged, false)
	tr.end(sp)
	return buf.Bytes(), t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), err
}

// fleetSeeds lists the fresh seeds and, after each, the earlier fresh
// seeds repeated as cache hits; a pure function of the workload seed.
func fleetSeeds(seed uint64, fresh int) (seeds []uint64, repeats [][]int) {
	for i := 0; i < fresh; i++ {
		seeds = append(seeds, mix(seed, uint64(i)))
		var r []int
		for h := 0; i > 0 && h < fleetHits; h++ {
			r = append(r, int(mix(seed, uint64(1_000_000+i*fleetHits+h))%uint64(i)))
		}
		repeats = append(repeats, r)
	}
	return seeds, repeats
}

// fleetPass is one pass over the workload's requests.
type fleetPass struct {
	d                  delta
	attempted, failed  int64
	requests           int
	opCPU, opMS, hitMS []float64
	plainMS, execMS    []float64
	plainCPU, shardCPU float64
	coordS, assembleS  float64
	calls, wire        int64
	mismatched         map[string]int
}

func runFleetPass(f *fleet, seed uint64, fresh int, tr *tracer) (fleetPass, error) {
	p := fleetPass{mismatched: map[string]int{}}
	seeds, repeats := fleetSeeds(seed, fresh)
	plainBlocks := make([]map[string]string, len(seeds))
	check := func(out []byte, want map[string]string, order []string) {
		_, got := splitBlocks(string(out))
		p.attempted += int64(len(order))
		for _, id := range blockMismatches(got, want, order) {
			p.failed++
			p.mismatched[id]++
		}
	}
	request := func(s uint64, tr *tracer, name string, root int) ([]byte, time.Duration, error) {
		sp := tr.begin(name, "request", root)
		t0 := time.Now()
		out, c, a, err := f.sharded(s, tr, sp)
		d := time.Since(t0)
		tr.end(sp)
		p.coordS += c
		p.assembleS += a
		p.requests++
		return out, d, err
	}
	var orders [][]string
	root := tr.begin("fleet", "bench", 0)
	start := takeSample()
	for i, s := range seeds {
		sp := tr.begin("serve.plain_job", "serve.plain_job", root)
		c0, t0 := processCPU(), time.Now()
		body, err := f.plainJob(s)
		p.plainMS = append(p.plainMS, ms(time.Since(t0)))
		p.plainCPU += processCPU() - c0
		tr.end(sp)
		if err != nil {
			return p, fmt.Errorf("plain job seed %d: %w", s, err)
		}
		order, blocks := splitBlocks(string(body))
		plainBlocks[i] = blocks
		orders = append(orders, order)

		c0 = processCPU()
		f.takeExecMS() // executions of earlier cache hits
		out, d, err := request(s, tr, "request", root)
		if err != nil {
			return p, fmt.Errorf("sharded request seed %d: %w", s, err)
		}
		p.shardCPU += processCPU() - c0
		p.opCPU = append(p.opCPU, cpuSince(c0))
		p.opMS = append(p.opMS, ms(d))
		p.execMS = append(p.execMS, f.takeExecMS()...)
		check(out, blocks, order)

		for _, k := range repeats[i] {
			out, d, err := request(seeds[k], tr, "request (cache hit)", root)
			if err != nil {
				return p, fmt.Errorf("repeated request seed %d: %w", seeds[k], err)
			}
			p.hitMS = append(p.hitMS, ms(d))
			check(out, plainBlocks[k], orders[k])
		}
	}
	p.d = since(start)
	tr.end(root)
	for _, e := range f.execs {
		e.mu.Lock()
		p.calls += e.calls
		p.wire += e.wire
		e.mu.Unlock()
	}
	return p, nil
}

// takeExecMS returns and clears the executor decorators' per-call times.
func (f *fleet) takeExecMS() []float64 {
	var all []float64
	for _, e := range f.execs {
		e.mu.Lock()
		all = append(all, e.execMS...)
		e.execMS = nil
		e.mu.Unlock()
	}
	return all
}

// fleetSetupS starts the daemon fleetSetups times and keeps the last one
// running; set-up is the CPU time from daemon start until every client has
// a connection to a ready daemon.
func fleetSetupS(tr *tracer) (*fleet, float64, error) {
	times := make([]float64, 0, fleetSetups)
	for {
		c0 := processCPU()
		f, err := startFleet(tr)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, processCPU()-c0)
		if len(times) == fleetSetups {
			return f, median(times), nil
		}
		if err := f.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// fleetRun starts a daemon (measuring set-up), runs one pass of the
// workload against its empty cache and stops it.
func fleetRun(seed uint64, fresh int, tr *tracer) (fleetPass, float64, error) {
	f, setupS, err := fleetSetupS(tr)
	if err != nil {
		return fleetPass{}, 0, err
	}
	p, err := runFleetPass(f, seed, fresh, tr)
	if serr := f.stop(); err == nil {
		err = serr
	}
	return p, setupS, err
}

func runFleet(o options) (result, error) {
	fresh := max(2, o.seconds/2)
	plain, setupS, err := fleetRun(o.seed, fresh, nil)
	if err != nil {
		return result{}, err
	}
	problems := fleetProblems(plain)
	res := result{Attempted: plain.attempted, Failed: plain.failed}
	if len(plain.mismatched) > 0 {
		fmt.Printf("perfbench fleet: sharded output differs from the unsharded job in blocks %v\n", plain.mismatched)
	}
	if !o.trace {
		res.Metrics = e2e(plain.d, setupS, plain.opCPU)
		fmt.Printf("perfbench fleet: %d fresh seeds, %d requests, wall_s %.3f, op_p50_ms %.3f, hit_p50_ms %.3f, steal %.1f%%, peak_rss_mb %.1f, shard executions %d for %d shards\n",
			fresh, plain.requests, plain.d.wallS, median(plain.opMS), median(plain.hitMS), plain.d.stealPct, peakRSSMB(), plain.calls, plain.requests*fleetShards)
		res.Correct = len(problems) == 0
		report(problems)
		return res, nil
	}

	traced, tr, buckets, err := profiledPass(o, "fleet", func(tr *tracer) (fleetPass, error) {
		p, _, err := fleetRun(o.seed, fresh, tr)
		return p, err
	})
	if err != nil {
		return result{}, err
	}
	problems = append(problems, fleetProblems(traced)...)
	if traced.attempted != plain.attempted || traced.failed != plain.failed {
		problems = append(problems, fmt.Sprintf("traced pass checked %d/%d blocks failed, untraced %d/%d",
			traced.failed, traced.attempted, plain.failed, plain.attempted))
	}
	rows, spanned := tr.selfTimes()
	if err := saveReport(o, "fleet", tr, rows, spanned, traced.d, plain.d, buckets); err != nil {
		return result{}, err
	}
	d := traced.d
	hits, misses := d.count("serve.cache_hits"), d.count("serve.cache_misses")
	v := map[string]float64{
		"serve.jobs":                 d.count("serve.jobs_submitted"),
		"serve.cache_hit_ratio":      share(hits, hits+misses),
		"serve.job_p50_ms":           1e3 * d.histQuantile("serve.job_seconds", 0.5),
		"serve.queue_rejects":        d.count("serve.queue_rejects"),
		"serve.plain_job_ms":         median(traced.plainMS),
		"serve.hit_p50_ms":           median(traced.hitMS),
		"shard.executions_per_shard": share(float64(traced.calls), float64(traced.requests*fleetShards)),
		"shard.execute_p50_ms":       quantile(traced.execMS, 0.5),
		"shard.execute_p90_ms":       quantile(traced.execMS, 0.9),
		"shard.wire_kb":              share(float64(traced.wire), float64(traced.calls)) / 1024,
		"shard.coordinate_s":         traced.coordS,
		"shard.assemble_s":           traced.assembleS,
		"shard.cpu_ratio":            share(traced.shardCPU, traced.plainCPU),
	}
	counterLayers(v, d)
	res.Metrics = layerMetrics(buckets, v)
	runtimeLayer(res.Metrics, d, plain.d)
	res.Correct = len(problems) == 0
	report(problems)
	return res, nil
}

// fleetProblems checks the invariants of one pass: every daemon job is a
// plain job or a shard execution the decorators saw, and none was refused.
func fleetProblems(p fleetPass) []string {
	var problems []string
	plainJobs := float64(len(p.plainMS))
	if jobs := p.d.count("serve.jobs_submitted"); jobs != plainJobs+float64(p.calls) {
		problems = append(problems, fmt.Sprintf("daemon accepted %.0f jobs, expected %.0f plain + %d shard executions", jobs, plainJobs, p.calls))
	}
	if r := p.d.count("serve.queue_rejects"); r != 0 {
		problems = append(problems, fmt.Sprintf("%.0f submissions refused by the queue", r))
	}
	if failed := p.d.count("serve.jobs_failed"); failed != 0 {
		problems = append(problems, fmt.Sprintf("%.0f daemon jobs failed", failed))
	}
	return problems
}
