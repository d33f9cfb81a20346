// Package satisfy implements the subscriber-satisfaction framework the
// MCSS paper inherits from its companion work ("Maximizing the number of
// satisfied subscribers in Pub/Sub systems under capacity constraints",
// INFOCOM 2014 — reference [9] of the MCSS paper):
//
//   - satisfaction metrics: per-subscriber satisfaction ratio
//     min(1, delivered/τ_v), the satisfied count, and fleet-wide
//     aggregates;
//
//   - the capacity-constrained maximization problem: given a single
//     engine with a total bandwidth budget (the pre-cloud, black-box
//     setting that MCSS generalizes), choose topic–subscriber pairs to
//     maximize the number of satisfied subscribers.
//
// MCSS §II motivates its formulation as the multi-server, cost-aware
// extension of exactly this problem, so the package doubles as the
// baseline "what could a single box do" analysis tool.
package satisfy

import (
	"errors"
	"sort"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Metrics aggregates satisfaction over a population of subscribers.
type Metrics struct {
	// Satisfied is the number of subscribers with delivered ≥ τ_v.
	Satisfied int
	// Total is the subscriber population size.
	Total int
	// MeanRatio is the average of min(1, delivered/τ_v).
	MeanRatio float64
	// MinRatio is the worst subscriber's ratio.
	MinRatio float64
}

// Ratio computes one subscriber's satisfaction ratio min(1, delivered/τ_v);
// a subscriber with τ_v = 0 (no demand) is fully satisfied.
func Ratio(delivered, tauV int64) float64 {
	if tauV <= 0 {
		return 1
	}
	r := float64(delivered) / float64(tauV)
	if r > 1 {
		return 1
	}
	return r
}

// Measure computes Metrics for delivered event rates (indexed by SubID)
// against the workload's thresholds.
func Measure(w *workload.Workload, delivered []int64, tau int64) Metrics {
	n := w.NumSubscribers()
	m := Metrics{Total: n, MinRatio: 1}
	if n == 0 {
		return m
	}
	var sum float64
	for v := 0; v < n; v++ {
		var d int64
		if v < len(delivered) {
			d = delivered[v]
		}
		tauV := w.TauV(workload.SubID(v), tau)
		r := Ratio(d, tauV)
		sum += r
		if r < m.MinRatio {
			m.MinRatio = r
		}
		if d >= tauV {
			m.Satisfied++
		}
	}
	m.MeanRatio = sum / float64(n)
	return m
}

// Result is the outcome of the capacity-constrained maximization.
type Result struct {
	// Satisfied subscribers, in selection order (cheapest first).
	Satisfied []workload.SubID
	// Pairs chosen for the satisfied subscribers.
	Pairs []workload.Pair
	// UsedBytesPerHour is the bandwidth consumed out of the budget
	// (2·ev_t·msg per pair: the engine's ingress plus egress, matching
	// the MCSS pair-cost model).
	UsedBytesPerHour int64
}

// ErrBadBudget reports a non-positive budget or message size.
var ErrBadBudget = errors.New("satisfy: budget and message size must be positive")

// MaximizeSatisfied approximates the INFOCOM problem: select pairs within
// a total bandwidth budget so that as many subscribers as possible are
// satisfied. The heuristic is cheapest-subscriber-first: each subscriber's
// minimal satisfaction cost is computed with the same greedy used by MCSS
// Stage 1, subscribers are sorted by that cost, and they are admitted
// whole (a partially-served subscriber contributes nothing to the
// objective) until the budget is exhausted.
func MaximizeSatisfied(w *workload.Workload, tau, budgetBytesPerHour, messageBytes int64) (*Result, error) {
	if budgetBytesPerHour <= 0 || messageBytes <= 0 {
		return nil, ErrBadBudget
	}
	sel := core.GreedySelectPairs(w, tau)

	type candidate struct {
		v    workload.SubID
		cost int64
	}
	cands := make([]candidate, 0, w.NumSubscribers())
	for v := 0; v < w.NumSubscribers(); v++ {
		cost := 2 * sel.SelectedRate(workload.SubID(v)) * messageBytes
		cands = append(cands, candidate{v: workload.SubID(v), cost: cost})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].v < cands[j].v
	})

	res := &Result{}
	remaining := budgetBytesPerHour
	for _, c := range cands {
		if c.cost > remaining {
			// Later subscribers are at least as expensive; stop. (A
			// cheaper-later candidate cannot exist because the list is
			// sorted.)
			break
		}
		remaining -= c.cost
		res.UsedBytesPerHour += c.cost
		res.Satisfied = append(res.Satisfied, c.v)
		for _, t := range sel.SelectedTopics(c.v) {
			res.Pairs = append(res.Pairs, workload.Pair{Topic: t, Sub: c.v})
		}
	}
	return res, nil
}

// MinBudgetToSatisfyAll reports the bandwidth a single engine needs to
// satisfy every subscriber under the Stage-1 greedy selection — the
// black-box capacity-planning number that motivates moving to the
// multi-VM MCSS formulation when it exceeds one machine.
func MinBudgetToSatisfyAll(w *workload.Workload, tau, messageBytes int64) int64 {
	sel := core.GreedySelectPairs(w, tau)
	var sum int64
	for v := 0; v < w.NumSubscribers(); v++ {
		sum += 2 * sel.SelectedRate(workload.SubID(v)) * messageBytes
	}
	return sum
}
