package experiments

import (
	"fmt"

	"fadingcr/internal/geom"
	"fadingcr/internal/schedule"
	"fadingcr/internal/sinr"
	"fadingcr/internal/stats"
	"fadingcr/internal/table"
	"fadingcr/internal/xrand"
)

// e18 — the conjecture's origin quantified: one-shot SINR link capacity
// (how many nearest-neighbour links can be served simultaneously) grows
// linearly with n on constant-density deployments, while the collision
// channel serves exactly one link per round. This is the centralized
// spectrum-reuse result (Moscibroda–Wattenhofer line) whose distributed
// analogue the paper establishes.
func e18() Experiment {
	return Experiment{
		ID:    "E18",
		Title: "One-shot SINR link capacity (centralized spatial reuse)",
		Claim: "Greedy SINR scheduling serves Θ(n) nearest-neighbour links per round (capacity/n roughly constant); the collision channel serves 1 — the spectrum-reuse headroom the paper's algorithm exploits.",
		Run: func(cfg Config) ([]*table.Table, error) {
			ns := []int{16, 32, 64, 128, 256, 512}
			if cfg.Quick {
				ns = []int{16, 64}
			}
			trials := cfg.trials(10, 3)

			result := table.New("E18 — one-shot capacity of greedy SINR scheduling (nearest-neighbour requests)",
				"n", "mean capacity", "capacity/n", "rounds to serve all (mean)", "collision channel")
			for _, n := range ns {
				type capacity struct {
					Links  float64 `json:"links"`
					Rounds float64 `json:"rounds"`
				}
				outcomes, err := runTrials(cfg, trials, func(trial int) (capacity, error) {
					d, err := geom.UniformDisk(xrand.Split(cfg.Seed, uint64(trial)), n)
					if err != nil {
						return capacity{}, err
					}
					params := DefaultParams()
					params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
					requests := schedule.NearestNeighborLinks(d.Points)
					// The one-shot capacity is the first round of the full
					// schedule: ScheduleAll's first round is Greedy's set.
					rounds, err := schedule.ScheduleAll(params, d.Points, requests)
					if err != nil {
						return capacity{}, fmt.Errorf("E18 n=%d schedule-all: %w", n, err)
					}
					return capacity{Links: float64(len(rounds[0])), Rounds: float64(len(rounds))}, nil
				})
				if err != nil {
					return nil, err
				}
				var caps, sched []float64
				for _, o := range outcomes {
					caps = append(caps, o.Links)
					sched = append(sched, o.Rounds)
				}
				meanCap := stats.Mean(caps)
				result.AddRow(table.Int(n),
					table.Float(meanCap, 1),
					table.Float(meanCap/float64(n), 3),
					table.Float(stats.Mean(sched), 1),
					fmt.Sprintf("1 link/round (%d rounds)", n))
			}
			return []*table.Table{result}, nil
		},
	}
}
