package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/dynamic"
)

// TestPlanApplyRoundTrip is the lifecycle acceptance test: `mcss plan -o
// plan.json` followed by `mcss apply plan.json` must land the cluster
// exactly on the plan's forecast — same cost, same fingerprint, same
// migration stats — and applying the same plan again after the state
// drifted must fail with ErrStalePlan.
func TestPlanApplyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "cluster.json")
	planPath := filepath.Join(dir, "plan.json")
	trace := filepath.Join(dir, "trace.gz")

	w, err := mcss.GenerateTwitter(mcss.DefaultTwitterTrace().Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := mcss.SaveTrace(w, trace); err != nil {
		t.Fatal(err)
	}
	common := []string{"-trace", trace, "-tau", "100"}

	// Plan from the empty cluster, then apply.
	if err := run(append([]string{"plan", "-state", state, "-o", planPath}, common...)); err != nil {
		t.Fatal(err)
	}
	plan, err := mcss.LoadPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"apply", "-quiet", "-state", state, planPath}); err != nil {
		t.Fatal(err)
	}

	// The persisted state equals the plan's forecast: fingerprint, cost,
	// and fleet size all match.
	cur, err := loadState(state)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cur.Fingerprint(), plan.TargetFingerprint(); got != want {
		t.Fatalf("applied state fingerprint %s != plan target %s", got, want)
	}
	if got, want := cur.Allocation.Cost(plan.Model), plan.CostAfter; got != want {
		t.Fatalf("applied cost %v != plan forecast %v", got, want)
	}
	if got, want := cur.Allocation.NumVMs(), plan.Diff.Stats.VMsAfter; got != want {
		t.Fatalf("applied fleet %d VMs != plan forecast %d", got, want)
	}
	realized := dynamic.StepsBetween(mcss.EmptyClusterState().Allocation, cur.Allocation)
	if len(realized) != len(plan.Steps) {
		t.Fatalf("realized state needs %d steps from empty, plan had %d", len(realized), len(plan.Steps))
	}

	// Dry-run of a fresh no-drift plan applies cleanly and changes nothing.
	plan2Path := filepath.Join(dir, "plan2.json")
	if err := run(append([]string{"plan", "-state", state, "-o", plan2Path}, common...)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"apply", "-quiet", "-dry-run", "-state", state, plan2Path}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("dry run rewrote the state file")
	}

	// Drift the workload (rate spike) and reconcile onto it.
	drifted, err := mcss.ApplyDelta(w, mcss.Delta{RateChanges: map[mcss.TopicID]int64{0: w.Rate(0) * 3}})
	if err != nil {
		t.Fatal(err)
	}
	driftTrace := filepath.Join(dir, "drift.gz")
	if err := mcss.SaveTrace(drifted, driftTrace); err != nil {
		t.Fatal(err)
	}
	plan3 := filepath.Join(dir, "plan3.json")
	if err := run([]string{"plan", "-trace", driftTrace, "-tau", "100", "-state", state, "-o", plan3}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"apply", "-quiet", "-state", state, plan3}); err != nil {
		t.Fatal(err)
	}

	// The pre-drift plan no longer matches the cluster: ErrStalePlan.
	err = run([]string{"apply", "-quiet", "-state", state, plan2Path})
	if !errors.Is(err, mcss.ErrStalePlan) {
		t.Fatalf("apply after drift returned %v, want ErrStalePlan", err)
	}
}

// TestDiffSubcommand covers both diff modes: computing a fresh diff and
// reviewing a saved plan.
func TestDiffSubcommand(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	common := []string{"-dataset", "spotify", "-scale", "0.005", "-tau", "50"}
	if err := run(append([]string{"diff"}, common...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"plan", "-o", planPath}, common...)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"diff", planPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"diff", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("diff of a missing plan file succeeded")
	}
}

// TestApplyUsageErrors: apply without a plan argument fails.
func TestApplyUsageErrors(t *testing.T) {
	if err := run([]string{"apply"}); err == nil {
		t.Fatal("apply without a plan accepted")
	}
	if err := run([]string{"apply", "a.json", "b.json"}); err == nil {
		t.Fatal("apply with two plans accepted")
	}
}
