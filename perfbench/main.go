// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in-process through the same public functions the CLIs call,
// checks every output, and prints one JSON result line:
//
//	perfbench -workload paper-suite -seed 7 -seconds 30 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 the
// run makes an untraced pass and a traced pass over the same inputs and the
// result carries the per-layer metrics, after a human-readable report. See
// README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Paths relative to the repository root, where perfbench runs.
var (
	outDir  = filepath.Join(".bench_build", "out")         // span logs, profiles, reports
	refPath = filepath.Join("perfbench", "reference.json") // recorded digests and counts
)

// options are the command-line arguments plus where the run reads and writes.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string
	refPath string
	record  bool
}

// workload runs one benchmark workload.
type workload func(o options) (result, error)

var workloads = map[string]workload{
	"paper-suite":  runPaperSuite,
	"long-channel": runLongChannel,
	"fleet":        runFleet,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-suite|long-channel|fleet")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "work budget in seconds on the reference machine (scales the work, not a deadline)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: untraced and traced pass, per-layer metrics and report")
	record := fs.Bool("record", false, "write this seed's digests and counts into the reference instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds ≥ 1 and -trace 0|1\n", sortedKeys(workloads))
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := w(options{
		seed: *seed, seconds: *seconds, trace: *traced == 1,
		outDir: outDir, refPath: refPath, record: *record,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
