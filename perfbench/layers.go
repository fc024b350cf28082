package main

import "fmt"

// perLayer lists every per-layer metric with its unit, in the order of the
// layer map in README.md. A traced run reports all of them; a layer the
// workload does not exercise, or whose calls the benchmark does not make
// itself, reads 0.
var perLayer = []struct{ name, unit string }{
	{"geom.deploys", "count"}, {"geom.deploy_s", "s"}, {"geom.cpu_s", "s"},
	{"sinr.channels", "count"}, {"sinr.cached_share", "ratio"}, {"sinr.build_s", "s"}, {"sinr.build_cpu_s", "s"},
	{"sinr.gain_max_mb", "MiB"}, {"sinr.deliveries_per_channel", "count"},
	{"sinr.deliveries", "count"}, {"sinr.deliver_s", "s"}, {"sinr.deliver_us", "us"}, {"sinr.deliver_cpu_s", "s"},
	{"sinr.fallback_share", "ratio"},
	{"sim.runs", "count"}, {"sim.rounds", "count"}, {"sim.transmissions", "count"}, {"sim.protocol_s", "s"},
	{"sim.cpu_s", "s"}, {"sim.trial_cpu_p90_ms", "ms"},
	{"schedule.cpu_s", "s"}, {"hitting.cpu_s", "s"},
	{"runner.trials", "count"}, {"runner.trial_p50_ms", "ms"}, {"runner.trial_p99_ms", "ms"},
	{"runner.busy_share", "ratio"}, {"runner.cpu_s", "s"},
	{"experiments.E1_s", "s"}, {"experiments.E2_s", "s"}, {"experiments.E3_s", "s"}, {"experiments.E4_s", "s"},
	{"experiments.E5_s", "s"}, {"experiments.E6_s", "s"}, {"experiments.E7_s", "s"}, {"experiments.E8_s", "s"},
	{"experiments.E9_s", "s"}, {"experiments.E10_s", "s"}, {"experiments.E11_s", "s"}, {"experiments.E12_s", "s"},
	{"experiments.E13_s", "s"}, {"experiments.E14_s", "s"}, {"experiments.E15_s", "s"}, {"experiments.E16_s", "s"},
	{"experiments.E17_s", "s"}, {"experiments.E18_s", "s"}, {"experiments.render_s", "s"}, {"experiments.cpu_s", "s"},
	{"serve.jobs", "count"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.job_p50_ms", "ms"},
	{"serve.queue_rejects", "count"}, {"serve.plain_job_ms", "ms"}, {"serve.hit_p50_ms", "ms"}, {"serve.cpu_s", "s"},
	{"shard.executions_per_shard", "ratio"}, {"shard.execute_p50_ms", "ms"}, {"shard.execute_p90_ms", "ms"},
	{"shard.wire_kb", "KiB"}, {"shard.coordinate_s", "s"}, {"shard.assemble_s", "s"}, {"shard.cpu_ratio", "ratio"},
	{"shard.cpu_s", "s"},
	{"runtime.gc_cpu_share", "ratio"}, {"runtime.gc_cycles", "count"}, {"runtime.peak_rss_mb", "MiB"},
	{"runtime.gc_cpu_s", "s"}, {"other.cpu_s", "s"},
	{"host.wall_s", "s"}, {"host.steal_pct", "%"}, {"trace.overhead_pct", "%"},
}

// profileLayers maps CPU-profile buckets (see layerOf) to their metrics;
// buckets not listed here (obs, bench, lint, …) fold into other.cpu_s.
var profileLayers = map[string]string{
	"geom": "geom.cpu_s", "sinr.build": "sinr.build_cpu_s", "sinr.deliver": "sinr.deliver_cpu_s",
	"sim": "sim.cpu_s", "schedule": "schedule.cpu_s", "hitting": "hitting.cpu_s", "runner": "runner.cpu_s",
	"experiments": "experiments.cpu_s", "serve": "serve.cpu_s", "shard": "shard.cpu_s",
	"runtime.gc": "runtime.gc_cpu_s",
}

// layerMetrics returns the full per-layer set with every value 0, then
// applies the CPU-profile buckets and the values the workload measured.
// It panics on a name missing from perLayer: that is a bug in the
// benchmark, not an input error.
func layerMetrics(buckets []layerTime, values map[string]float64) map[string]metric {
	units := map[string]string{}
	m := map[string]metric{}
	for _, l := range perLayer {
		units[l.name] = l.unit
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic(fmt.Sprintf("perfbench: per-layer metric %q is not declared", name))
		}
		m[name] = metric{m[name].Value + v, u}
	}
	for _, b := range buckets {
		name, ok := profileLayers[b.Layer]
		if !ok {
			name = "other.cpu_s"
		}
		set(name, b.Self)
	}
	for k, v := range values {
		set(k, v)
	}
	return m
}

// counterLayers fills the SINR, simulator and runner rows from obs counter
// deltas.
func counterLayers(v map[string]float64, d delta) {
	built, fallback := d.count("sinr.gaincache_built"), d.count("sinr.gaincache_fallback")
	deliveries := d.count("sinr.deliveries")
	v["sinr.channels"] = built + fallback
	v["sinr.cached_share"] = share(built, built+fallback)
	v["sinr.gain_max_mb"] = d.count("sinr.gaincache_max_bytes") / (1 << 20)
	v["sinr.deliveries"] = deliveries
	v["sinr.deliveries_per_channel"] = share(deliveries, built+fallback)
	v["sinr.fallback_share"] = share(d.count("sinr.deliveries_fallback"), deliveries)
	v["sim.runs"] = d.count("sim.runs")
	v["sim.rounds"] = d.count("sim.rounds")
	v["sim.transmissions"] = d.count("sim.transmissions")
	v["runner.trials"] = d.count("runner.trials_completed")
	v["runner.trial_p50_ms"] = 1e3 * d.histQuantile("runner.trial_seconds", 0.5)
	v["runner.trial_p99_ms"] = 1e3 * d.histQuantile("runner.trial_seconds", 0.99)
}

// exactCounts are the counts that must repeat exactly for one seed.
func exactCounts(d delta, names ...string) map[string]int64 {
	out := map[string]int64{}
	for _, n := range names {
		out[n] = int64(d.count(n))
	}
	return out
}
