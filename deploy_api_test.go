package mcss_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/deploy"
)

// deployDemoWorkload builds a small deterministic workload for the public
// lifecycle tests.
func deployDemoWorkload(t *testing.T) *mcss.Workload {
	t.Helper()
	b := mcss.NewWorkloadBuilder().
		AddTopic("hot", 120).
		AddTopic("warm", 40).
		AddTopic("cold", 6)
	for i := 0; i < 20; i++ {
		user := string(rune('a' + i))
		b.AddSubscription(user, "hot")
		if i%2 == 0 {
			b.AddSubscription(user, "warm")
		}
		if i%5 == 0 {
			b.AddSubscription(user, "cold")
		}
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPublicDeployLifecycle drives Plan → (save/load) → Apply
// through the exported API only: bootstrap, persisted review artifact,
// dry run, apply, drift, and the ErrStalePlan refusal.
func TestPublicDeployLifecycle(t *testing.T) {
	ctx := context.Background()
	w := deployDemoWorkload(t)
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(demoModel()))
	if err != nil {
		t.Fatal(err)
	}

	plan, err := p.Plan(ctx, w, mcss.EmptyClusterState())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 || plan.CostAfter <= 0 {
		t.Fatalf("bootstrap plan: %d steps, cost %v", len(plan.Steps), plan.CostAfter)
	}

	// The plan survives disk as a review artifact.
	path := filepath.Join(t.TempDir(), "plan.json.gz")
	if err := mcss.SavePlan(plan, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := mcss.LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TargetFingerprint() != plan.TargetFingerprint() {
		t.Fatal("plan lost its target fingerprint on disk")
	}

	prov, err := mcss.RestoreProvisioner(mcss.EmptyClusterState(), p.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcss.Apply(ctx, loaded, prov, mcss.ApplyDryRun()); err != nil {
		t.Fatal(err)
	}
	var steps int
	rep, err := mcss.Apply(ctx, loaded, prov, mcss.WithStepObserver(
		func(i, total int, s mcss.DeployStep) error {
			steps++
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if steps != len(loaded.Steps) || rep.Cost != plan.CostAfter {
		t.Fatalf("applied %d steps at %v, want %d at %v", steps, rep.Cost, len(loaded.Steps), plan.CostAfter)
	}
	if prov.Cost() != plan.CostAfter {
		t.Fatalf("provisioner cost %v != forecast %v", prov.Cost(), plan.CostAfter)
	}

	// A re-plan's diff reports the drift it enacts.
	drifted, err := mcss.ApplyDelta(w, mcss.Delta{RateChanges: map[mcss.TopicID]int64{0: 240}})
	if err != nil {
		t.Fatal(err)
	}
	next, err := p.Plan(ctx, drifted, mcss.ClusterStateOf(prov))
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Diff.Delta.RateChanges) != 1 {
		t.Fatalf("diff has %d rate changes, want 1", len(next.Diff.Delta.RateChanges))
	}

	// Apply the reconfiguration, then try the now-stale bootstrap plan.
	if _, err := mcss.Apply(ctx, next, prov); err != nil {
		t.Fatal(err)
	}
	if _, err := mcss.Apply(ctx, loaded, prov); !errors.Is(err, mcss.ErrStalePlan) {
		t.Fatalf("stale apply returned %v, want ErrStalePlan", err)
	}
}

// TestSnapshotPlanRejectsMalformedState: a cluster state whose placements
// fail the structural checks (a topic outside the workload, a topic twice
// on one VM, a subscriber twice in one placement) is refused with
// ErrInvalidPlan, not an index panic, and restoring a provisioner from it
// fails too, so no provisioner exists that could never be planned against.
func TestSnapshotPlanRejectsMalformedState(t *testing.T) {
	w := deployDemoWorkload(t)
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(demoModel()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(vm *mcss.VM)
	}{
		{"negative topic", func(vm *mcss.VM) {
			vm.Placements = append(vm.Placements, mcss.TopicPlacement{Topic: -1, Subs: []mcss.SubID{0}})
		}},
		{"topic twice on a vm", func(vm *mcss.VM) {
			q := vm.Placements[0]
			vm.Placements = append(vm.Placements, mcss.TopicPlacement{Topic: q.Topic, Subs: q.Subs[:1:1]})
		}},
		{"subscriber twice in a placement", func(vm *mcss.VM) {
			q := &vm.Placements[0]
			q.Subs = append(q.Subs, q.Subs[0])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := p.Solve(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(res.Allocation.VMs[0])
			state := deploy.NewState(w, res.Allocation)
			if _, err := mcss.SnapshotPlan(p.Config(), state); !errors.Is(err, mcss.ErrInvalidPlan) {
				t.Fatalf("snapshot plan: got %v, want ErrInvalidPlan", err)
			}
			if prov, err := mcss.RestoreProvisioner(state, p.Config()); err == nil || prov != nil {
				t.Fatalf("restore: got a provisioner and error %v, want only an error", err)
			}
		})
	}
}

// TestUpdateIncrementalRejectsMalformedAdopt: after a provisioner adopts
// an allocation placing a negative topic or subscriber, the incremental
// index build refuses it with an error instead of an index panic.
func TestUpdateIncrementalRejectsMalformedAdopt(t *testing.T) {
	ctx := context.Background()
	w := deployDemoWorkload(t)
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(demoModel()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		bad  mcss.TopicPlacement
	}{
		{"negative topic", mcss.TopicPlacement{Topic: -1, Subs: []mcss.SubID{0}}},
		{"negative subscriber", mcss.TopicPlacement{Topic: 0, Subs: []mcss.SubID{-2}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := p.Solve(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			prov, err := mcss.RestoreProvisioner(deploy.NewState(w, res.Allocation), p.Config())
			if err != nil {
				t.Fatal(err)
			}
			bad, err := p.Solve(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			vm := bad.Allocation.VMs[len(bad.Allocation.VMs)-1]
			vm.Placements = append(vm.Placements, c.bad)
			prov.Adopt(w, bad)
			if _, err := prov.UpdateIncremental(ctx, mcss.Delta{NewSubscribers: 1}); err == nil {
				t.Fatal("UpdateIncremental accepted an allocation placing a negative ID")
			}
		})
	}
}

// TestElasticEpochPlansPublic: the controller's per-epoch plans are
// visible through the public report type.
func TestElasticEpochPlansPublic(t *testing.T) {
	base := deployDemoWorkload(t)
	day := mcss.DefaultDiurnalTrace()
	day.Epochs = 6
	tl, err := mcss.GenerateDiurnal(base, day)
	if err != nil {
		t.Fatal(err)
	}
	env, err := tl.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	var peak int64
	for i := 0; i < env.NumTopics(); i++ {
		if r := env.Rate(mcss.TopicID(i)); r > peak {
			peak = r
		}
	}
	m := mcss.NewModel(mcss.C3Large)
	m.CapacityOverrideBytesPerHour = 4 * peak * 200
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(m))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.RunTimeline(context.Background(), tl, mcss.DefaultElasticPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for e, ep := range rep.Epochs {
		if ep.Plan == nil {
			t.Fatalf("epoch %d has no plan", e)
		}
		if e > 0 && ep.Plan.BaseFingerprint != rep.Epochs[e-1].Plan.TargetFingerprint() {
			t.Fatalf("epoch %d plan does not chain from epoch %d", e, e-1)
		}
	}
}
