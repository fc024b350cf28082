// Package schedule implements centralized one-shot SINR link scheduling in
// the style of Moscibroda and Wattenhofer — the line of work the paper
// credits with proving that fading channels admit *spatial reuse* ("spectrum
// reuse enabled by super-quadratic signal fading") and thereby originating
// the conjecture the paper resolves for distributed algorithms.
//
// The scheduler answers the capacity question directly: how many
// sender→receiver links can transmit simultaneously in one round such that
// every receiver decodes its own sender under the SINR equation? On a
// collision channel the answer is always 1; on a fading channel it grows
// linearly with n for constant-density deployments — which is exactly the
// headroom the paper's distributed algorithm exploits through knock-outs.
package schedule

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"fadingcr/internal/geom"
	"fadingcr/internal/sinr"
)

// Link is a directed transmission request.
type Link struct {
	// Sender and Receiver are node indices into the deployment.
	Sender, Receiver int
}

// NearestNeighborLinks returns the canonical request set used by capacity
// experiments: every node wants to transmit to its nearest neighbour.
func NearestNeighborLinks(pts []geom.Point) []Link {
	links := make([]Link, 0, len(pts))
	for u := range pts {
		v, _ := geom.NearestNeighbor(pts, u)
		if v >= 0 {
			links = append(links, Link{Sender: u, Receiver: v})
		}
	}
	return links
}

// Feasible reports whether every link of the set is decoded when all the
// set's senders transmit simultaneously: for each link, the receiver must
// not itself be a sender, and the sender's SINR at the receiver must clear
// β against the other senders' interference plus noise.
func Feasible(params sinr.Params, pts []geom.Point, links []Link) (bool, error) {
	if err := params.Validate(); err != nil {
		return false, err
	}
	sending := make(map[int]bool, len(links))
	for _, l := range links {
		if l.Sender < 0 || l.Sender >= len(pts) || l.Receiver < 0 || l.Receiver >= len(pts) {
			return false, fmt.Errorf("schedule: link %+v outside deployment of %d nodes", l, len(pts))
		}
		if l.Sender == l.Receiver {
			return false, fmt.Errorf("schedule: link %+v is a self-loop", l)
		}
		if sending[l.Sender] {
			return false, nil // a sender can serve at most one link per round
		}
		sending[l.Sender] = true
	}
	// Sum interference in ascending sender order: float addition is not
	// associative, so iterating the map directly would make marginal links
	// flip between runs (caught by crlint's maporder analyzer).
	senders := make([]int, 0, len(sending))
	for s := range sending {
		senders = append(senders, s)
	}
	sort.Ints(senders)
	for _, l := range links {
		if sending[l.Receiver] {
			return false, nil // a receiver cannot also transmit
		}
		signal := params.Signal(pts[l.Sender].Dist(pts[l.Receiver]))
		interference := 0.0
		for _, s := range senders {
			if s == l.Sender {
				continue
			}
			interference += params.Signal(pts[s].Dist(pts[l.Receiver]))
		}
		if params.SINR(signal, interference) < params.Beta {
			return false, nil
		}
	}
	return true, nil
}

// Greedy builds a feasible simultaneous transmission set greedily: requests
// are considered in ascending link-length order (short links are the easiest
// to protect, the standard heuristic of the capacity literature), and each
// is added if the set stays feasible. The result is maximal: no rejected
// link can be added afterwards. It returns exactly the set a loop calling
// Feasible on every candidate would, but reads each signal from a table
// built once per request set (see requestTable). Complexity O(k²) signals
// plus O(k·c²) table reads for k requests and c chosen links.
func Greedy(params sinr.Params, pts []geom.Point, requests []Link) ([]Link, error) {
	t, err := newRequestTable(params, pts, requests)
	if err != nil {
		return nil, err
	}
	return t.links(t.greedy(t.order)), nil
}

// ScheduleAll partitions the requests into consecutive feasible rounds by
// repeatedly applying Greedy — the one-shot capacity iterated until every
// link has been served. It returns the per-round link sets; the first round
// is Greedy's set. All rounds share one signal table. Requests that can
// never be feasible alone (e.g. violating the SINR threshold even with no
// interference) surface as an error rather than an infinite loop.
func ScheduleAll(params sinr.Params, pts []geom.Point, requests []Link) ([][]Link, error) {
	t, err := newRequestTable(params, pts, requests)
	if err != nil {
		return nil, err
	}
	// Filtering the greedy order keeps it the greedy order of what remains:
	// a stable sort of a subsequence is the subsequence of the stable sort.
	remaining := t.order
	var rounds [][]Link
	for len(remaining) > 0 {
		batch := t.links(t.greedy(remaining))
		if len(batch) == 0 {
			return nil, fmt.Errorf("schedule: %d requests cannot be scheduled (infeasible even in isolation)", len(remaining))
		}
		rounds = append(rounds, batch)
		served := make(map[Link]bool, len(batch))
		for _, l := range batch {
			served[l] = true
		}
		next := remaining[:0]
		for _, r := range remaining {
			if !served[requests[r]] {
				next = append(next, r)
			}
		}
		remaining = next
	}
	return rounds, nil
}

// requestTable is Feasible's arithmetic for one request set, computed once:
// sig[r*k+s] = params.Signal(d(sender of s, receiver of r)) for request
// indices r and s, the very expression Feasible evaluates (Dist, then Pow),
// so every sum built from it has Feasible's bits.
type requestTable struct {
	params   sinr.Params
	nodes    int // deployment size
	requests []Link
	order    []int // request indices by ascending link length, stable
	sig      []float64
}

// newRequestTable validates the request set and tabulates its signals.
func newRequestTable(params sinr.Params, pts []geom.Point, requests []Link) (*requestTable, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, errors.New("schedule: empty deployment")
	}
	for _, l := range requests {
		if l.Sender < 0 || l.Sender >= len(pts) || l.Receiver < 0 || l.Receiver >= len(pts) {
			return nil, fmt.Errorf("schedule: link %+v outside deployment of %d nodes", l, len(pts))
		}
	}
	for _, l := range requests {
		if l.Sender == l.Receiver {
			return nil, fmt.Errorf("schedule: link %+v is a self-loop", l)
		}
	}
	k := len(requests)
	t := &requestTable{params: params, nodes: len(pts), requests: requests, order: make([]int, k), sig: make([]float64, k*k)}
	length := make([]float64, k)
	for r, lr := range requests {
		row := t.sig[r*k : (r+1)*k]
		for s, ls := range requests {
			row[s] = params.Signal(pts[ls.Sender].Dist(pts[lr.Receiver]))
		}
		t.order[r] = r
		length[r] = pts[lr.Sender].Dist2(pts[lr.Receiver])
	}
	sort.SliceStable(t.order, func(a, b int) bool { return length[t.order[a]] < length[t.order[b]] })
	return t, nil
}

// greedy returns the request indices Greedy accepts from candidates, taken
// in the given order.
func (t *requestTable) greedy(candidates []int) []int {
	sending := make([]bool, t.nodes)
	receiving := make([]bool, t.nodes)
	var chosen []int
	var bySender []int // chosen plus the candidate, ascending sender node
	for _, c := range candidates {
		l := t.requests[c]
		// A sender serves one link per round, and no node both sends and
		// receives.
		if sending[l.Sender] || sending[l.Receiver] || receiving[l.Sender] {
			continue
		}
		at, _ := slices.BinarySearchFunc(bySender, l.Sender, func(r, sender int) int {
			return cmp.Compare(t.requests[r].Sender, sender)
		})
		bySender = slices.Insert(bySender, at, c)
		if !t.feasible(bySender, c) {
			bySender = slices.Delete(bySender, at, at+1)
			continue
		}
		chosen = append(chosen, c)
		sending[l.Sender], receiving[l.Receiver] = true, true
	}
	return chosen
}

// feasible reports whether every link of the set decodes, checking the
// newly added link first since it is the likeliest to fail.
func (t *requestTable) feasible(bySender []int, added int) bool {
	if !t.decodes(bySender, added) {
		return false
	}
	for _, r := range bySender {
		if r != added && !t.decodes(bySender, r) {
			return false
		}
	}
	return true
}

// decodes reports whether link r clears β when the set transmits: its
// interference is summed in ascending sender order, as in Feasible.
func (t *requestTable) decodes(bySender []int, r int) bool {
	k := len(t.requests)
	row := t.sig[r*k : (r+1)*k]
	interference := 0.0
	for _, s := range bySender {
		if s != r {
			interference += row[s]
		}
	}
	return !(t.params.SINR(row[r], interference) < t.params.Beta)
}

// links maps request indices back to their links.
func (t *requestTable) links(idx []int) []Link {
	var out []Link
	for _, r := range idx {
		out = append(out, t.requests[r])
	}
	return out
}
