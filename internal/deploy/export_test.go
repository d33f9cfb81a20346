package deploy

import (
	"context"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// SolvePlan solves w under cfg and plans the move from current (nil = the
// empty cluster) to the solved allocation: the solve-then-NewPlan pair the
// mcss Planner's Plan runs. It lives in a test file so this package's
// tests and its external test package share it.
func SolvePlan(ctx context.Context, cfg core.Config, w *workload.Workload, current *State) (*Plan, error) {
	res, err := core.SolveContext(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	return NewPlan(cfg, current, NewState(w, res.Allocation))
}

// PreviewPlan plans the provisioner's incremental preview of d, from its
// current state to the candidate, without adopting the candidate: Apply
// the plan to enact it.
func PreviewPlan(ctx context.Context, cfg core.Config, prov *dynamic.Provisioner, d dynamic.Delta) (*Plan, error) {
	next, res, _, err := prov.PreviewIncremental(ctx, d)
	if err != nil {
		return nil, err
	}
	return NewPlan(cfg, StateOf(prov), NewState(next, res.Allocation))
}
