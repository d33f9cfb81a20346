package dynamic_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/experiments"
)

// TestDiffsMatchOraclesOnChurnSetup runs the migration and step diffs
// against the map-based oracles on the scale sweep's 20k-pair workload,
// before and after one incremental epoch of 1% churn.
func TestDiffsMatchOraclesOnChurnSetup(t *testing.T) {
	w, cfg, err := experiments.ChurnSetup(20_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prov := dynamic.Restore(w, res, cfg)
	d := experiments.ChurnDelta(rand.New(rand.NewSource(3)), w, 0.01)
	_, cand, stats, err := prov.PreviewIncremental(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallback {
		t.Fatal("the epoch fell back to a full re-solve; want an incremental epoch")
	}
	base, epoch := res.Allocation, cand.Allocation
	cases := []struct {
		name          string
		before, after *core.Allocation
	}{
		{"before/self", base, base},
		{"after/self", epoch, epoch},
		{"epoch", base, epoch},
		{"reverse", epoch, base},
		{"bootstrap", nil, epoch},
		{"teardown", epoch, &core.Allocation{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := dynamic.MigrationBetween(c.before, c.after), dynamic.OracleMigrationBetween(c.before, c.after)
			if got != want {
				t.Fatalf("migration %+v, oracle %+v", got, want)
			}
			if c.name == "epoch" && (want.PairsMoved == 0 || want.PairsKept == 0) {
				t.Fatalf("epoch moved %d and kept %d pairs; want both", want.PairsMoved, want.PairsKept)
			}
			if diff := dynamic.StepsDiff(dynamic.StepsBetween(c.before, c.after), dynamic.OracleStepsBetween(c.before, c.after)); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}
