package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for the root
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Start: t.us(now), End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = t.us(now)
	t.mu.Unlock()
}

// add records an already-timed span.
func (t *tracer) add(name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Start: t.us(start), End: t.us(end)})
	return len(t.spans)
}

// writeNDJSON writes a header line and one line per span.
func (t *tracer) writeNDJSON(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"event": "spans", "workload": workload, "clock": "us", "count": len(t.spans)}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the wall time attributed to one layer.
type layerTime struct {
	Layer string
	Self  float64 // seconds
	Spans int
}

// selfTimes splits the root span's wall time among layers: at every
// instant the time goes to the innermost open spans (open spans with no
// open child), shared equally when several run at once. The rows therefore
// sum to the root's duration exactly, concurrency included; a layer's row
// is its spans' durations minus what their children cover.
func (t *tracer) selfTimes() (rows []layerTime, total float64) {
	type event struct {
		at    float64
		open  bool
		index int
	}
	events := make([]event, 0, 2*len(t.spans))
	counts := map[string]int{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{s.Start, true, i}, event{s.End, false, i})
		counts[s.Layer]++
	}
	// Closes before opens at equal times, so a span never looks like its
	// successor's parent.
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return !events[a].open && events[b].open
	})
	openChildren := make([]int, len(t.spans))
	var open []int
	self := map[string]float64{}
	last := 0.0
	for k, ev := range events {
		if k > 0 && ev.at > last {
			var leaves []int
			for _, i := range open {
				if openChildren[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			dt := (ev.at - last) / 1e6
			for _, i := range leaves {
				self[t.spans[i].Layer] += dt / float64(len(leaves))
			}
			if len(open) > 0 {
				total += dt
			}
		}
		last = ev.at
		s := t.spans[ev.index]
		parent := s.Parent - 1
		if ev.open {
			open = append(open, ev.index)
			if parent >= 0 {
				openChildren[parent]++
			}
			continue
		}
		for j, i := range open {
			if i == ev.index {
				open = append(open[:j], open[j+1:]...)
				break
			}
		}
		if parent >= 0 {
			openChildren[parent]--
		}
	}
	for layer, v := range self {
		rows = append(rows, layerTime{Layer: layer, Self: v, Spans: counts[layer]})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Self > rows[b].Self })
	return rows, total
}

// layerSelf returns one layer's attributed seconds.
func layerSelf(rows []layerTime, layer string) float64 {
	for _, r := range rows {
		if r.Layer == layer {
			return r.Self
		}
	}
	return 0
}

// writeReport prints the per-layer self-time table, the CPU-profile
// buckets and the tracing overhead.
func writeReport(w io.Writer, workload string, rows []layerTime, spanned float64, traced, plain delta, buckets []layerTime) {
	fmt.Fprintf(w, "perfbench %s traced run: wall %.3f s traced, %.3f s untraced; cpu %.3f s traced, %.3f s untraced, overhead %+.1f%% (cpu); steal %.1f%%\n",
		workload, traced.wallS, plain.wallS, traced.cpuS, plain.cpuS, 100*(share(traced.cpuS, plain.cpuS)-1), traced.stealPct)
	fmt.Fprintf(w, "%-22s %10s %7s %8s\n", "layer (span self time)", "seconds", "share", "spans")
	var sum float64
	for _, r := range rows {
		sum += r.Self
		fmt.Fprintf(w, "%-22s %10.3f %6.1f%% %8d\n", r.Layer, r.Self, 100*share(r.Self, spanned), r.Spans)
	}
	fmt.Fprintf(w, "%-22s %10.3f %6.1f%%   (spans cover %.1f%% of traced wall)\n", "total", sum, 100*share(sum, spanned), 100*share(spanned, traced.wallS))
	var cpu float64
	for _, b := range buckets {
		cpu += b.Self
	}
	fmt.Fprintf(w, "%-22s %10s %7s %8s\n", "layer (CPU profile)", "cpu s", "share", "samples")
	for _, b := range buckets {
		fmt.Fprintf(w, "%-22s %10.3f %6.1f%% %8d\n", b.Layer, b.Self, 100*share(b.Self, cpu), b.Spans)
	}
	fmt.Fprintf(w, "%-22s %10.3f\n", "total", cpu)
}

// saveReport writes the report next to the span log and echoes it to
// stdout, ahead of the result line.
func saveReport(o options, workload string, t *tracer, rows []layerTime, spanned float64, traced, plain delta, buckets []layerTime) error {
	var b strings.Builder
	writeReport(&b, workload, rows, spanned, traced, plain, buckets)
	fmt.Print(b.String())
	if err := os.WriteFile(filepath.Join(o.outDir, workload+"-report.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	return t.writeNDJSON(filepath.Join(o.outDir, workload+"-spans.ndjson"), workload)
}
