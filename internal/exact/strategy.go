package exact

import (
	"context"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// SolveResult is the exact solver in core.Config.Solver's shape: set as
// the Solver (the mcss Planner does so for WithStrategy("exact")), it
// replaces the two-stage heuristic with the optimal subset DP, returning
// its selection and reconstructed allocation as an ordinary solver result.
// It refuses instances beyond MaxPairs pairs with ErrTooLarge, exactly
// like SolveContext.
func SolveResult(ctx context.Context, w *workload.Workload, cfg core.Config) (*core.Result, error) {
	start := time.Now()
	sol, err := SolveContext(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	sel, err := core.SelectionFromPairs(w, sol.Selected)
	if err != nil {
		return nil, err
	}
	// The DP selects and packs jointly; the whole wall time is reported as
	// Stage2Time (Stage 1 has no separate analogue).
	return &core.Result{
		Selection:  sel,
		Allocation: sol.Allocation,
		Stage2Time: time.Since(start),
	}, nil
}
