package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// inputSets is how many seeds have recorded references. A workload seed s
// selects input set ((s−1) mod inputSets)+1, so seed 7 is the seed of
// `make results` and every seed has a reference.
const inputSets = 8

func inputSet(seed uint64) uint64 { return (seed+inputSets-1)%inputSets + 1 }

// reference is perfbench/reference.json: per workload and input set, the
// digests of every checked output and the counts that must repeat exactly.
type reference map[string]map[string]*refEntry

type refEntry struct {
	Blocks      map[string]string `json:"blocks,omitempty"`      // experiment id → block digest
	Deployments []string          `json:"deployments,omitempty"` // per-deployment trial-outcome digests
	Counts      map[string]int64  `json:"counts,omitempty"`
}

func loadReference(path string) (reference, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return reference{}, nil
	}
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

// entry returns the recorded entry of a workload's input set, or nil.
func (r reference) entry(workload string, set uint64) *refEntry {
	return r[workload][strconv.FormatUint(set, 10)]
}

// store records an entry and rewrites the reference file.
func storeReference(path, workload string, set uint64, e *refEntry) error {
	ref, err := loadReference(path)
	if err != nil {
		return err
	}
	if ref[workload] == nil {
		ref[workload] = map[string]*refEntry{}
	}
	ref[workload][strconv.FormatUint(set, 10)] = e
	raw, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// splitBlocks cuts rendered experiment output into one block per
// experiment, keyed by id. A block runs from its "==== E… ====" header to
// the next header; surrounding blank lines are dropped, because the
// service's plain job body and crbench's stdout differ in blank lines only.
func splitBlocks(text string) (ids []string, blocks map[string]string) {
	blocks = map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			blocks[id] = strings.Trim(cur.String(), "\n")
			ids = append(ids, id)
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "==== "); ok {
			flush()
			id, _, _ = strings.Cut(rest, " ")
		}
		cur.WriteString(line)
	}
	flush()
	return ids, blocks
}

// blockMismatches lists the ids whose block in got differs from want (or
// is missing from either side), in want's order followed by extras.
func blockMismatches(got, want map[string]string, order []string) []string {
	var bad []string
	seen := map[string]bool{}
	for _, id := range order {
		seen[id] = true
		if g, ok := got[id]; !ok || g != want[id] {
			bad = append(bad, id)
		}
	}
	var extra []string
	for id := range got {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	return append(bad, extra...)
}

var timingLine = regexp.MustCompile(`(?m)^\(E\d+ completed in [^)]*\)\n`)

// resultsFullBlocks returns the blocks of results_full.txt, the checked-in
// output of `crbench -seed 7`, without its timing lines.
func resultsFullBlocks(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, blocks := splitBlocks(timingLine.ReplaceAllString(string(raw), ""))
	return blocks, nil
}

// countMismatches lists the counts of got that differ from want.
func countMismatches(got, want map[string]int64) []string {
	var bad []string
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			bad = append(bad, fmt.Sprintf("%s %d≠%d", k, got[k], want[k]))
		}
	}
	return bad
}
