package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fadingcr/internal/obs"
)

// sample is a point-in-time reading of everything a run reports as a
// delta: clocks, the Go runtime, the host, and the program's own counters
// in obs.Default.
type sample struct {
	wall     time.Time
	cpu      float64 // process user+sys seconds
	alloc    uint64  // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // runtime-estimated GC CPU seconds
	allCPU   float64 // runtime-estimated total CPU seconds
	steal    uint64  // host steal ticks (/proc/stat)
	ticks    uint64  // host total ticks
	counters map[string]obs.MetricSnapshot
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSample() sample {
	metrics.Read(runtimeSamples)
	s := sample{
		cpu:      processCPU(),
		alloc:    runtimeSamples[0].Value.Uint64(),
		gcCycles: runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
		allCPU:   runtimeSamples[3].Value.Float64(),
		counters: map[string]obs.MetricSnapshot{},
	}
	s.steal, s.ticks = hostTicks()
	for _, m := range obs.Default.Snapshot() {
		s.counters[m.Name] = m
	}
	s.wall = time.Now()
	return s
}

// delta is the difference between two samples.
type delta struct {
	wallS, cpuS, allocMB float64
	gcCycles             float64
	gcCPUShare, stealPct float64
	before, after        sample
}

func since(a sample) delta {
	b := takeSample()
	d := delta{
		wallS:    b.wall.Sub(a.wall).Seconds(),
		cpuS:     b.cpu - a.cpu,
		allocMB:  float64(b.alloc-a.alloc) / (1 << 20),
		gcCycles: float64(b.gcCycles - a.gcCycles),
		before:   a,
		after:    b,
	}
	if all := b.allCPU - a.allCPU; all > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / all
	}
	if t := b.ticks - a.ticks; t > 0 {
		d.stealPct = 100 * float64(b.steal-a.steal) / float64(t)
	}
	return d
}

// count is the growth of a counter (or the final value of a gauge).
func (d delta) count(name string) float64 {
	after := d.after.counters[name]
	if after.Kind == "gauge" {
		return float64(after.Value)
	}
	return float64(after.Value - d.before.counters[name].Value)
}

// histQuantile estimates quantile q of the observations a histogram
// received between the two samples, interpolating within buckets like
// obs's own exported quantiles.
func (d delta) histQuantile(name string, q float64) float64 {
	after, before := d.after.counters[name], d.before.counters[name]
	var total float64
	counts := make([]float64, len(after.Buckets))
	for i, b := range after.Buckets {
		c := float64(b.Count)
		if i < len(before.Buckets) {
			c -= float64(before.Buckets[i].Count)
		}
		counts[i] = c
		total += c
	}
	rank, cum, lo := q*total, 0.0, 0.0
	for i, b := range after.Buckets {
		hi, err := strconv.ParseFloat(b.Lt, 64)
		if err != nil {
			hi = math.Inf(1)
		}
		if counts[i] > 0 && cum+counts[i] >= rank {
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/counts[i]
		}
		cum += counts[i]
		lo = hi
	}
	return 0
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostTicks reads the steal and total jiffies of the aggregate cpu line of
// /proc/stat; both are 0 where the file is unavailable.
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	for i, fv := range fields[1:] {
		v, _ := strconv.ParseUint(fv, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile is the linearly interpolated q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// share is a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives the i-th child seed of a seed (SplitMix64 finalizer), so
// every input of a workload is a pure function of the workload seed.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// e2e builds the end-to-end metric set every workload reports. Every time
// in it is process CPU time: on the shared 2-vCPU reference machine the
// hypervisor steals so much that a fixed computation's wall time ranged
// 2.3× while its CPU time stayed within ±10%. Wall time is printed beside
// the result and reported per layer.
func e2e(d delta, setupS float64, opCPUMS []float64) map[string]metric {
	return map[string]metric{
		"cpu_s":     {d.cpuS, "s"},
		"setup_s":   {setupS, "s"},
		"alloc_mb":  {d.allocMB, "MiB"},
		"op_cpu_ms": {median(opCPUMS), "ms"},
	}
}

// runtimeLayer is the Go runtime and host row of the per-layer metrics:
// traced is the traced pass, plain the untraced pass over the same inputs.
func runtimeLayer(m map[string]metric, traced, plain delta) {
	m["runtime.gc_cpu_share"] = metric{traced.gcCPUShare, "ratio"}
	m["runtime.gc_cycles"] = metric{traced.gcCycles, "count"}
	m["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	m["host.wall_s"] = metric{plain.wallS, "s"}
	m["host.steal_pct"] = metric{plain.stealPct, "%"}
	m["trace.overhead_pct"] = metric{100 * (share(traced.cpuS, plain.cpuS) - 1), "%"}
}

// cpuSince is the process CPU time since c0, in milliseconds.
func cpuSince(c0 float64) float64 { return 1e3 * (processCPU() - c0) }
