package hitting

import (
	"errors"
	"fmt"
)

// This file implements the adversarial-referee view of the restricted
// k-hitting game. Lemma 13's lower bound is against a referee that chooses
// the target *worst-case*, not at random. Every player in this repository is
// oblivious — the game's only feedback ("your proposal lost") carries no
// information, so a player's proposal sequence is a fixed random sequence
// given its seed. Against an oblivious player the optimal adversary simply
// picks the 2-element target that survives the longest prefix of that
// sequence; ObliviousWorstCase computes it exactly.

// WorstCase is the outcome of an adversarial game against an oblivious
// player.
type WorstCase struct {
	// Rounds is the number of rounds the best adversarial target survives
	// (the first winning round against that target); equals the budget when
	// some target survives every proposal.
	Rounds int
	// TargetA, TargetB is a maximising target pair.
	TargetA, TargetB int
	// Survived reports whether the target survived the entire budget.
	Survived bool
}

// ObliviousWorstCase plays the player's proposal sequence (feeding the
// mandatory loss feedback after each round) and returns the target pair that
// maximises the winning round. It is exact for oblivious players; for a
// feedback-sensitive player it is a lower bound on the adversarial value
// (the adversary could do at least this well).
//
// Two elements survive together exactly as long as every proposal so far
// contains both or neither, so the surviving pairs are the pairs inside the
// classes of the partition of 1 … k by proposal membership. Each round
// refines that partition; once every class is a singleton no pair survives,
// and the round that split the last classes — all of size two by then — is
// the adversarial value. Its target is the lexicographically first of those
// last pairs, the pair an exhaustive scan over all pairs in index order
// reports. When some class outlives the budget, the result is the first
// pair inside one, with Survived set.
//
// The game stops at that last split: later rounds are neither proposed nor
// rejected, so a proposal element outside 1 … k after that round is not
// reported. Complexity: O(k + proposal size) per round played, which is
// about 2·log₂k rounds for the half-density player.
func ObliviousWorstCase(p Player, k, maxRounds int) (WorstCase, error) {
	if k < 2 {
		return WorstCase{}, errors.New("hitting: k must be ≥ 2")
	}
	if maxRounds < 1 {
		return WorstCase{}, fmt.Errorf("hitting: maxRounds %d must be ≥ 1", maxRounds)
	}
	class := make([]int, k+1)    // class of each 1-based element; all start in class 0
	size := make([]int, k)       // elements per class
	in := make([]int, k)         // proposed elements per class this round
	into := make([]int, k)       // the class a class's proposed part moves to
	proposed := make([]int, k+1) // last round each element was proposed, for duplicates
	size[0] = k
	classes := 1
	var members, touched []int
	for round := 1; round <= maxRounds; round++ {
		members, touched = members[:0], touched[:0]
		for _, id := range p.Propose(round) {
			if id < 1 || id > k {
				return WorstCase{}, fmt.Errorf("hitting: proposal element %d outside [1, %d]", id, k)
			}
			if proposed[id] == round {
				continue
			}
			proposed[id] = round
			members = append(members, id)
			c := class[id]
			if in[c] == 0 {
				touched = append(touched, c)
			}
			in[c]++
		}
		p.Reject(round)
		splits := 0
		for _, c := range touched {
			if in[c] < size[c] {
				splits++
			}
		}
		if classes+splits == k {
			// Every class left splits into two singletons this round.
			a, b := firstSameClassPair(class)
			return WorstCase{Rounds: round, TargetA: a, TargetB: b}, nil
		}
		for _, c := range touched {
			into[c] = c
			if in[c] < size[c] {
				into[c] = classes
				classes++
			}
		}
		for _, id := range members {
			c := class[id]
			size[c]--
			class[id] = into[c]
			size[into[c]]++
		}
		for _, c := range touched {
			in[c] = 0
		}
	}
	a, b := firstSameClassPair(class)
	return WorstCase{Rounds: maxRounds, TargetA: a, TargetB: b, Survived: true}, nil
}

// firstSameClassPair returns the lexicographically first pair a < b of
// elements in one class: a is the least element with a classmate, b the
// least of its classmates. The partition must have a class of two or more.
func firstSameClassPair(class []int) (a, b int) {
	first := make([]int, len(class)) // least element of each class; 0 before it is seen
	for id := 1; id < len(class); id++ {
		f := first[class[id]]
		if f == 0 {
			first[class[id]] = id
			continue
		}
		if a == 0 || f < a {
			a, b = f, id
		}
	}
	return a, b
}
