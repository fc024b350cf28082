package schedule

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/sinr"
	"fadingcr/internal/xrand"
)

// feasibleGreedy and feasibleScheduleAll are the implementations Greedy and
// ScheduleAll replaced — one Feasible call per candidate — kept as their
// oracle.
func feasibleGreedy(params sinr.Params, pts []geom.Point, requests []Link) ([]Link, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("schedule: empty deployment")
	}
	ordered := append([]Link(nil), requests...)
	sort.SliceStable(ordered, func(i, j int) bool {
		di := pts[ordered[i].Sender].Dist2(pts[ordered[i].Receiver])
		dj := pts[ordered[j].Sender].Dist2(pts[ordered[j].Receiver])
		return di < dj
	})
	var chosen []Link
	for _, l := range ordered {
		candidate := append(chosen, l)
		ok, err := Feasible(params, pts, candidate)
		if err != nil {
			return nil, err
		}
		if ok {
			chosen = candidate
		}
	}
	return chosen, nil
}

func feasibleScheduleAll(params sinr.Params, pts []geom.Point, requests []Link) ([][]Link, error) {
	remaining := append([]Link(nil), requests...)
	var rounds [][]Link
	for len(remaining) > 0 {
		batch, err := feasibleGreedy(params, pts, remaining)
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return nil, fmt.Errorf("schedule: %d requests cannot be scheduled (infeasible even in isolation)", len(remaining))
		}
		rounds = append(rounds, batch)
		served := make(map[Link]bool, len(batch))
		for _, l := range batch {
			served[l] = true
		}
		next := remaining[:0]
		for _, l := range remaining {
			if !served[l] {
				next = append(next, l)
			}
		}
		remaining = next
	}
	return rounds, nil
}

// randomRequests draws k links over n nodes with repeated senders,
// receivers that also send, and exact duplicate links.
func randomRequests(seed uint64, n, k int) []Link {
	rng := xrand.New(seed)
	var out []Link
	for len(out) < k {
		s, r := rng.IntN(n), rng.IntN(n)
		if s == r {
			continue
		}
		out = append(out, Link{Sender: s, Receiver: r})
		if rng.Float64() < 0.1 {
			out = append(out, out[len(out)-1])
		}
	}
	return out
}

// TestGreedyAndScheduleAllMatchFeasibleLoop: the table-driven scheduler
// returns exactly the links, order and rounds of the Feasible-driven loop,
// over nearest-neighbour and random request sets and several SINR
// parameter sets.
func TestGreedyAndScheduleAllMatchFeasibleLoop(t *testing.T) {
	params := []sinr.Params{
		{Alpha: 3, Beta: 1.5, Noise: 1},
		{Alpha: 2.5, Beta: 0.5, Noise: 0.2},
		{Alpha: 4, Beta: 1, Noise: 0},
	}
	for pi, base := range params {
		for _, n := range []int{2, 9, 40, 120} {
			for seed := uint64(1); seed <= 3; seed++ {
				d, err := geom.UniformDisk(seed*31+uint64(n), n)
				if err != nil {
					t.Fatal(err)
				}
				p := base
				p.Power = sinr.MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, sinr.DefaultSingleHopMargin)
				sets := map[string][]Link{
					"nearest": NearestNeighborLinks(d.Points),
					"random":  randomRequests(seed, n, n),
				}
				for name, requests := range sets {
					label := fmt.Sprintf("params %d n=%d seed=%d %s", pi, n, seed, name)
					got, err := Greedy(p, d.Points, requests)
					want, werr := feasibleGreedy(p, d.Points, requests)
					if err != nil || werr != nil {
						t.Fatalf("%s: Greedy errors %v / %v", label, err, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Greedy = %v, Feasible loop %v", label, got, want)
					}
					rounds, err := ScheduleAll(p, d.Points, requests)
					wantRounds, werr := feasibleScheduleAll(p, d.Points, requests)
					if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
						t.Fatalf("%s: ScheduleAll errors %v / %v", label, err, werr)
					}
					if !reflect.DeepEqual(rounds, wantRounds) {
						t.Fatalf("%s: ScheduleAll = %v, Feasible loop %v", label, rounds, wantRounds)
					}
				}
			}
		}
	}
}

// TestGreedyErrorsMatchFeasibleLoop: validation errors are the loop's.
func TestGreedyErrorsMatchFeasibleLoop(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 3, Y: 0}}
	p := testParams(3)
	cases := map[string][]Link{
		"self-loop":    {{Sender: 0, Receiver: 1}, {Sender: 2, Receiver: 2}, {Sender: 1, Receiver: 1}},
		"out of range": {{Sender: 0, Receiver: 7}},
		"none":         nil,
	}
	for name, requests := range cases {
		_, err := Greedy(p, pts, requests)
		_, werr := feasibleGreedy(p, pts, requests)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%s: Greedy error %v, Feasible loop %v", name, err, werr)
		}
		_, err = ScheduleAll(p, pts, requests)
		_, werr = feasibleScheduleAll(p, pts, requests)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%s: ScheduleAll error %v, Feasible loop %v", name, err, werr)
		}
	}
}
