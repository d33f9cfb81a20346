package exact_test

import (
	"context"
	"testing"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/exact"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// WithStrategy("exact") must run the exact solver as an ordinary solve:
// its result costs the DP's optimum and passes the solver's verifier.
func TestExactStrategyByName(t *testing.T) {
	w, err := workload.FromCSR([]int64{5, 7}, []int64{0, 2, 3}, []workload.TopicID{0, 1, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mcss.NewModel(mcss.C3Large)
	m.CapacityOverrideBytesPerHour = 40
	p, err := mcss.NewPlanner(mcss.WithTau(5), mcss.WithModel(m), mcss.WithMessageBytes(1), mcss.WithStrategy("exact"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := exact.SolveContext(context.Background(), w, p.Config())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(res.Allocation.Cost(m)), int64(sol.Cost); got < want || got > want+int64(sol.VMs) {
		t.Errorf("strategy result costs %d µ$, exact optimum is %d µ$", got, want)
	}
	if err := p.Verify(w, res.Selection, res.Allocation); err != nil {
		t.Errorf("strategy result fails verification: %v", err)
	}
}
