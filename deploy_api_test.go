package mcss_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	mcss "github.com/pubsub-systems/mcss"
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
	if plan.IsNoop() || plan.CostAfter <= 0 {
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

	// Diff reports the drift a re-plan would enact.
	drifted, err := mcss.ApplyDelta(w, mcss.Delta{RateChanges: map[mcss.TopicID]int64{0: 240}})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := p.Diff(ctx, drifted, mcss.ClusterStateOf(prov))
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Delta.RateChanges) != 1 {
		t.Fatalf("diff has %d rate changes, want 1", len(diff.Delta.RateChanges))
	}

	// Apply the reconfiguration, then try the now-stale bootstrap plan.
	next, err := p.Plan(ctx, drifted, mcss.ClusterStateOf(prov))
	if err != nil {
		t.Fatal(err)
	}
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
			state := mcss.NewClusterState(w, res.Allocation)
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
			prov, err := mcss.RestoreProvisioner(mcss.NewClusterState(w, res.Allocation), p.Config())
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

// TestPublicCrashSafeApply drives the crash-safety surface through the
// exported API only: a journaled apply killed mid-plan by a fault
// injector, journal recovery, and a resumed apply (through a retrying
// executor that eats one transient fault) that lands on the plan's own
// target fingerprint with every step effect exactly once.
func TestPublicCrashSafeApply(t *testing.T) {
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
	if len(plan.Steps) < 3 {
		t.Fatalf("bootstrap plan has %d steps, need >= 3", len(plan.Steps))
	}
	crashAt := len(plan.Steps) / 2
	path := filepath.Join(t.TempDir(), "apply.journal")
	nop := mcss.DeployExecutorFunc(func(context.Context, int, int, mcss.DeployStep) error { return nil })
	effects := mcss.NewEffectLog()

	// Phase 1: journaled apply, crash armed mid-plan.
	j, err := mcss.OpenApplyJournal(path, mcss.JournalOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := mcss.RestoreProvisioner(mcss.EmptyClusterState(), p.Config())
	if err != nil {
		t.Fatal(err)
	}
	crasher := mcss.NewFaultInjector(nop, mcss.FaultConfig{
		Crash: true, CrashAtStep: crashAt, Effects: effects,
	})
	_, err = mcss.Apply(ctx, plan, prov,
		mcss.WithApplyJournal(j), mcss.WithStepExecutor(crasher))
	if !errors.Is(err, mcss.ErrSimulatedCrash) {
		t.Fatalf("want ErrSimulatedCrash, got %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: recover — the plan is in flight, resumable at the crash step.
	rec, err := mcss.RecoverApplyJournal(path)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rec.InFlight == nil || rec.NextStep != crashAt {
		t.Fatalf("recovery: in-flight %v next %d, want plan at step %d",
			rec.InFlight != nil, rec.NextStep, crashAt)
	}

	// Phase 3: resume through a retrying executor; the first executed step
	// fails transiently once and must be retried, not aborted.
	prov2, err := mcss.RestoreProvisioner(rec.State, p.Config())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := mcss.OpenApplyJournal(path, mcss.JournalOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	flaked := false
	flaky := mcss.DeployExecutorFunc(func(ctx context.Context, i, total int, s mcss.DeployStep) error {
		if !flaked {
			flaked = true
			return mcss.Transient(errors.New("cloud API hiccup"))
		}
		return mcss.NewFaultInjector(nop, mcss.FaultConfig{Effects: effects}).Execute(ctx, i, total, s)
	})
	exec := mcss.NewRetryExecutor(flaky, mcss.RetryConfig{
		Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	})
	rep, err := mcss.Apply(ctx, rec.InFlight, prov2,
		mcss.WithApplyJournal(j2), mcss.WithStepExecutor(exec),
		mcss.ResumeFrom(rec.NextStep))
	if err != nil {
		t.Fatalf("resumed apply: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !flaked {
		t.Error("transient fault never injected")
	}
	if got := mcss.ClusterStateOf(prov2).Fingerprint(); got != plan.TargetFingerprint() {
		t.Fatalf("resumed fingerprint %s, plan target %s", got, plan.TargetFingerprint())
	}
	if rep.StepsApplied != len(plan.Steps) {
		t.Errorf("resume reports %d steps applied, want the plan's %d", rep.StepsApplied, len(plan.Steps))
	}
	for i := range plan.Steps {
		if n := effects.Executions(i); n != 1 {
			t.Errorf("step %d executed %d times across the crash, want exactly once", i, n)
		}
	}
	final, err := mcss.RecoverApplyJournal(path)
	if err != nil || final.InFlight != nil {
		t.Fatalf("post-resume journal: in-flight %v err %v, want committed", final.InFlight != nil, err)
	}
}
