package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fadingcr/internal/catalog"
	"fadingcr/internal/experiments"
	"fadingcr/internal/shard"
	"fadingcr/internal/xrand"
)

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	s1, t1 := lcInputs(3, 4)
	s2, t2 := lcInputs(3, 4)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("long-channel inputs differ for one seed")
	}
	if s3, _ := lcInputs(4, 4); reflect.DeepEqual(s1, s3) {
		t.Fatal("long-channel inputs equal for two seeds")
	}
	// A longer run extends a shorter one, so recorded digests cover any
	// -seconds up to the recorded deployment count.
	if long, _ := lcInputs(3, 6); !reflect.DeepEqual(long[:4], s1) {
		t.Fatal("long-channel deployment seeds depend on the run length")
	}
	backoff := 0
	for _, tr := range t1[0] {
		if tr.algo == "backoff" {
			backoff++
		}
	}
	if backoff != lcBackoff || len(t1[0]) != lcFixed+lcBackoff {
		t.Fatalf("deployment has %d trials, %d backoff", len(t1[0]), backoff)
	}
	f1, r1 := fleetSeeds(5, 6)
	f2, r2 := fleetSeeds(5, 6)
	if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("fleet inputs differ for one seed")
	}
	for i, r := range r1 {
		for _, k := range r {
			if k >= i {
				t.Fatalf("fresh seed %d repeats seed %d, which is not earlier", i, k)
			}
		}
	}
	for seed, want := range map[uint64]uint64{0: 8, 1: 1, 7: 7, 8: 8, 9: 1, 15: 7} {
		if got := inputSet(seed); got != want {
			t.Errorf("inputSet(%d) = %d, want %d", seed, got, want)
		}
	}
}

const twoBlocks = "\n==== E1 — one ====\nClaim: a\n\nrow 1\n\n==== E2 — two ====\nClaim: b\n\nrow 2\n"

func TestBlockCheckCatchesAPlantedMismatch(t *testing.T) {
	order, want := splitBlocks(twoBlocks)
	if !reflect.DeepEqual(order, []string{"E1", "E2"}) {
		t.Fatalf("blocks %v", order)
	}
	// The service's body differs from crbench's stdout in blank lines only.
	_, same := splitBlocks(strings.TrimPrefix(twoBlocks, "\n") + "\n\n")
	if bad := blockMismatches(same, want, order); len(bad) != 0 {
		t.Fatalf("blank lines counted as a mismatch: %v", bad)
	}
	_, planted := splitBlocks(strings.Replace(twoBlocks, "row 2", "row 0", 1))
	if bad := blockMismatches(planted, want, order); !reflect.DeepEqual(bad, []string{"E2"}) {
		t.Fatalf("planted mismatch reported as %v", bad)
	}
	_, missing := splitBlocks(strings.Split(twoBlocks, "==== E2")[0])
	if bad := blockMismatches(missing, want, order); !reflect.DeepEqual(bad, []string{"E2"}) {
		t.Fatalf("missing block reported as %v", bad)
	}
}

func TestResultsFullHasEveryExperimentWithoutTimingLines(t *testing.T) {
	blocks, err := resultsFullBlocks(filepath.Join("..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != len(experiments.All()) {
		t.Fatalf("%d blocks", len(blocks))
	}
	for id, b := range blocks {
		if strings.Contains(b, "completed in") {
			t.Fatalf("%s keeps its timing line", id)
		}
	}
}

func writeRef(t *testing.T, workload string, set uint64, e *refEntry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := storeReference(path, workload, set, e); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPaperCheckCatchesAPlantedMismatch(t *testing.T) {
	_, blocks := splitBlocks(twoBlocks)
	e := &refEntry{Blocks: map[string]string{}, Counts: map[string]int64{}}
	for id, b := range blocks {
		e.Blocks[id] = digest([]byte(b))
	}
	p := paperPass{out: twoBlocks}
	o := options{refPath: writeRef(t, "paper-suite", 1, e)}
	if att, failed, problems, err := checkPaper(o, 1, p); err != nil || att != 2 || failed != 0 || len(problems) != 0 {
		t.Fatalf("clean output: attempted %d failed %d problems %v err %v", att, failed, problems, err)
	}
	p.out = strings.Replace(twoBlocks, "row 1", "row 9", 1)
	if _, failed, _, err := checkPaper(o, 1, p); err != nil || failed != 1 {
		t.Fatalf("planted mismatch: failed %d err %v", failed, err)
	}
	e.Counts["sim.rounds"] = 5
	o.refPath = writeRef(t, "paper-suite", 1, e)
	if _, _, problems, _ := checkPaper(o, 1, paperPass{out: twoBlocks}); len(problems) != 1 {
		t.Fatalf("planted count mismatch: problems %v", problems)
	}
}

func TestLongChannelCheckCatchesAPlantedMismatch(t *testing.T) {
	_, trials := lcInputs(1, 2)
	p := lcPass{digests: []string{lcDigest(trials[0]), lcDigest(trials[1])}}
	o := options{refPath: writeRef(t, "long-channel", 1, &refEntry{Deployments: p.digests})}
	if failed, problems, err := checkLong(o, 1, p); err != nil || failed != 0 || len(problems) != 0 {
		t.Fatalf("clean outcomes: failed %d problems %v err %v", failed, problems, err)
	}
	trials[1][3].res.Rounds++
	p.digests[1] = lcDigest(trials[1])
	if failed, _, err := checkLong(o, 1, p); err != nil || failed != lcFixed+lcBackoff {
		t.Fatalf("planted mismatch: failed %d err %v", failed, err)
	}
	p.digests = append(p.digests, "extra")
	if _, _, err := checkLong(o, 1, p); err == nil {
		t.Fatal("a deployment without a recorded digest passed")
	}
}

func TestChannelDecoratorPassesReceptionsThrough(t *testing.T) {
	d, err := catalog.Deployment("disk", 11, 256)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := lcChannel(d, 11)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := lcChannel(d, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	timed := &timedChannel{inner: inner, tr: tr}
	rng := xrand.New(3)
	tx := make([]bool, d.N())
	want, got := make([]int, d.N()), make([]int, d.N())
	for round := 0; round < 20; round++ {
		for i := range tx {
			tx[i] = rng.Float64() < 0.05*float64(round%4+1)
		}
		direct.Deliver(tx, want)
		timed.Deliver(tx, got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: receptions differ through the decorator", round)
		}
	}
	if timed.calls != 20 || len(tr.spans) != 20 || timed.N() != d.N() {
		t.Fatalf("decorator saw %d calls, %d spans", timed.calls, len(tr.spans))
	}
}

func TestExecutorDecoratorPassesBytesThrough(t *testing.T) {
	req := shard.Request{Spec: experiments.Spec{IDs: "E2,E4", Seed: 3, Quick: true}, Shards: 2}
	ctx := context.Background()
	direct := &shard.Local{Parallelism: 1}
	tr := newTracer()
	timed := &timedExecutor{inner: &shard.Local{Parallelism: 1}, tr: tr}
	for i := 0; i < req.Shards; i++ {
		want, err := direct.RunShard(ctx, req, i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := timed.RunShard(ctx, req, i)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("shard %d: wire bytes differ through the decorator", i)
		}
	}
	if timed.calls != 2 || len(timed.execMS) != 2 || len(tr.spans) != 2 || timed.Name() != direct.Name() {
		t.Fatalf("decorator saw %d calls, %d spans", timed.calls, len(tr.spans))
	}
}

func TestSelfTimesAccountForTheRootSpan(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", "bench", 0, at(0), at(100))
	req := tr.add("req", "request", root, at(10), at(90))
	// Two executions overlap from 30 to 50 ms; the overlap is split.
	tr.add("exec", "exec", req, at(20), at(50))
	tr.add("exec", "exec", req, at(30), at(70))
	tr.add("deploy", "geom", root, at(90), at(95))
	rows, total := tr.selfTimes()
	got := map[string]float64{}
	var sum float64
	for _, r := range rows {
		got[r.Layer] = r.Self
		sum += r.Self
	}
	want := map[string]float64{"bench": 0.015, "request": 0.03, "exec": 0.05, "geom": 0.005}
	for layer, w := range want {
		if d := got[layer] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s self %.6f s, want %.6f s", layer, got[layer], w)
		}
	}
	if d := sum - 0.1; d > 1e-9 || d < -1e-9 || total-0.1 > 1e-9 {
		t.Fatalf("rows sum to %.6f s over %.6f s spanned, want 0.1 s", sum, total)
	}
}

func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestProfileDecodesAndBuckets(t *testing.T) {
	prof, err := startCPUProfile(filepath.Join(t.TempDir(), "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	rows, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	var cpu float64
	for _, r := range rows {
		cpu += r.Self
	}
	if cpu <= 0 {
		t.Fatalf("decoded no CPU from a 300 ms spin: %v", rows)
	}
	cases := map[string][]string{
		"sinr.deliver": {"math.Pow", "fadingcr/internal/sinr.(*Channel).accumulateCachedTile", "fadingcr/internal/sinr.(*Channel).Deliver", "fadingcr/internal/sim.Run"},
		"sinr.build":   {"fadingcr/internal/geom.Point.Dist2", "fadingcr/internal/sinr.newGainCache", "fadingcr/internal/sinr.New", "fadingcr/internal/experiments.channelFor"},
		"schedule":     {"math.pow", "fadingcr/internal/sinr.attenuation", "fadingcr/internal/schedule.Feasible", "fadingcr/internal/experiments.e18"},
		"geom":         {"fadingcr/internal/xrand.(*Rand).Float64", "fadingcr/internal/geom.UniformDisk", "fadingcr/internal/runner.Run"},
		"sim":          {"fadingcr/internal/xrand.Bernoulli", "fadingcr/internal/core.(*fpNode).Act", "fadingcr/internal/sim.Run"},
		"experiments":  {"fadingcr/internal/stats.MeanCI", "fadingcr/internal/experiments.e1"},
		"shard":        {"encoding/json.Unmarshal", "fadingcr/internal/shard.Decode", "fadingcr/internal/shard.(*Coordinator).Run"},
		"runtime.gc":   {"runtime.scanobject", "runtime.gcBgMarkWorker"},
		"bench":        {"main.spin"},
		"other":        {"syscall.Syscall"},
	}
	for want, stack := range cases {
		if got := layerOf(stack); got != want {
			t.Errorf("layerOf(%v) = %s, want %s", stack, got, want)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// the workloads print in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"paper-suite", "long-channel", "fleet"}) || len(workloads) != 3 {
		t.Fatalf("workloads %v", names)
	}
	e2eWant := e2e(delta{}, 0, nil)
	if len(spec.EndToEnd) != len(e2eWant) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, workloads print %d", len(spec.EndToEnd), len(e2eWant))
	}
	for _, m := range spec.EndToEnd {
		if e2eWant[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q, printed %q", m.Name, m.Unit, e2eWant[m.Name].Unit)
		}
	}
	layers := layerMetrics(nil, nil)
	runtimeLayer(layers, delta{}, delta{})
	if len(spec.PerLayer) != len(layers) || len(layers) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, workloads print %d of %d declared", len(spec.PerLayer), len(layers), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if perLayer[i].name != m.Name || layers[m.Name].Unit != m.Unit {
			t.Errorf("per-layer %d: %s %q, declared %s %q", i, m.Name, m.Unit, perLayer[i].name, layers[m.Name].Unit)
		}
	}
}
