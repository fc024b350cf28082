package hitting

import (
	"fmt"
	"testing"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/xrand"
)

// exhaustiveWorstCase is the exhaustive implementation ObliviousWorstCase
// replaced, kept as its oracle: it ingests every round of the budget and
// scans all pairs in index order for the latest first asymmetric round.
func exhaustiveWorstCase(p Player, k, maxRounds int) (WorstCase, error) {
	appearances := make([][]int32, k+1)
	for round := 1; round <= maxRounds; round++ {
		proposal := p.Propose(round)
		seen := make(map[int]bool, len(proposal))
		for _, id := range proposal {
			if id < 1 || id > k {
				return WorstCase{}, fmt.Errorf("hitting: proposal element %d outside [1, %d]", id, k)
			}
			if !seen[id] {
				seen[id] = true
				appearances[id] = append(appearances[id], int32(round))
			}
		}
		p.Reject(round)
	}
	best := WorstCase{Rounds: 0, TargetA: 1, TargetB: 2}
	for a := 1; a <= k; a++ {
		for b := a + 1; b <= k; b++ {
			r, survived := firstAsymmetricRound(appearances[a], appearances[b], maxRounds)
			if survived && !best.Survived || (survived == best.Survived && r > best.Rounds) {
				best = WorstCase{Rounds: r, TargetA: a, TargetB: b, Survived: survived}
			}
		}
	}
	return best, nil
}

func firstAsymmetricRound(a, b []int32, maxRounds int) (int, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			return int(a[i]), false
		default:
			return int(b[j]), false
		}
	}
	if i < len(a) {
		return int(a[i]), false
	}
	if j < len(b) {
		return int(b[j]), false
	}
	return maxRounds, true
}

// TestObliviousWorstCaseMatchesExhaustiveScan: the partition-refinement
// adversary returns exactly the exhaustive pair scan's value, target and
// survival flag — over universe sizes, densities (sparse ones leave
// survivors within small budgets), budgets down to one round, and the
// reduction players of E14.
func TestObliviousWorstCaseMatchesExhaustiveScan(t *testing.T) {
	players := map[string]func(k int, seed uint64) (Player, error){
		"fixed-probability CR": func(k int, seed uint64) (Player, error) {
			return NewSimulationPlayer(core.FixedProbability{}, k, seed)
		},
		"probability-sweep CR": func(k int, seed uint64) (Player, error) {
			return NewSimulationPlayer(baselines.ProbabilitySweep{}, k, seed)
		},
	}
	for _, q := range []float64{0.02, 0.1, 0.5, 0.9} {
		players[fmt.Sprintf("density %v", q)] = func(k int, seed uint64) (Player, error) {
			return NewFixedDensityPlayer(k, q, seed)
		}
	}
	survived := 0
	for name, mk := range players {
		for _, k := range []int{2, 3, 5, 16, 61} {
			for _, budget := range []int{1, 3, 12, 400} {
				for seed := uint64(0); seed < 4; seed++ {
					s := xrand.Split(seed, uint64(k))
					p, err := mk(k, s)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ObliviousWorstCase(p, k, budget)
					if err != nil {
						t.Fatal(err)
					}
					p, _ = mk(k, s)
					want, err := exhaustiveWorstCase(p, k, budget)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s k=%d budget=%d seed=%d: got %+v, exhaustive %+v", name, k, budget, seed, got, want)
					}
					if got.Survived {
						survived++
					}
				}
			}
		}
	}
	if survived == 0 {
		t.Error("no case left a surviving pair; the survivor path is untested")
	}
}

// TestObliviousWorstCaseScriptedSplits: hand-built partitions where the
// last round splits several classes at once, where the first surviving pair
// is not the first repeated class met in index order, and where rounds
// split nothing, at every budget.
func TestObliviousWorstCaseScriptedSplits(t *testing.T) {
	scripts := [][][]int{
		{{1, 2, 3}, {1, 4}, {2, 5}},              // round 3 splits {2,3} and {5,6}: target (2,3)
		{{2, 3}, {1, 5}},                         // survivors {1,5}, {2,3}, {4,6}: target (1,5)
		{{6, 5, 5}, {4}, {1, 2, 3}, {1}, {2, 6}}, // duplicates, uneven splits
		{{}, {}, {1, 2, 3, 4, 5, 6}},             // rounds that split nothing
	}
	for si, script := range scripts {
		for budget := 1; budget <= len(script)+1; budget++ {
			got, err := ObliviousWorstCase(&scriptedPlayer{script: script}, 6, budget)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exhaustiveWorstCase(&scriptedPlayer{script: script}, 6, budget)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("script %d budget %d: got %+v, exhaustive %+v", si, budget, got, want)
			}
		}
	}
}
