package deploy

import (
	"context"
	"errors"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func testConfig() core.Config {
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 600_000
	return core.DefaultConfig(40, model)
}

func testWorkload(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 12, Subscribers: 40, MaxFollowings: 4, MaxRate: 120, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBootstrapPlanApply drives the full lifecycle from the empty cluster:
// plan, apply, and check that the realized cost and churn equal the
// forecast.
func TestBootstrapPlanApply(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 1)
	ctx := context.Background()

	plan, err := NewPlanner(cfg).Plan(ctx, SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IsNoop() {
		t.Fatal("bootstrap plan is a no-op")
	}
	if plan.CostBefore != 0 {
		t.Fatalf("empty cluster costs %v", plan.CostBefore)
	}
	if plan.BaseFingerprint != EmptyState().Fingerprint() {
		t.Fatal("bootstrap plan not pinned to the empty state")
	}

	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Apply(ctx, plan, prov)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost != plan.CostAfter {
		t.Fatalf("applied cost %v != forecast %v", rep.Cost, plan.CostAfter)
	}
	if prov.Cost() != plan.CostAfter {
		t.Fatalf("provisioner cost %v != forecast %v", prov.Cost(), plan.CostAfter)
	}
	if got := StateOf(prov).Fingerprint(); got != plan.TargetFingerprint() {
		t.Fatalf("post-apply fingerprint %s != plan target %s", got, plan.TargetFingerprint())
	}
	if rep.Stats.PairsMoved != plan.Diff.Stats.PairsMoved || rep.Stats.PairsKept != plan.Diff.Stats.PairsKept {
		t.Fatalf("realized churn %+v != forecast %+v", rep.Stats, plan.Diff.Stats)
	}
	// The adopted state passes the solver's own verifier.
	if err := core.VerifyAllocation(w, prov.Selection(), prov.Allocation(), cfg); err != nil {
		t.Fatalf("applied allocation fails verification: %v", err)
	}
}

// TestReconfigurePlanApply plans a drift (rates + churned interests) on a
// running cluster and applies it; a second apply of the same plan must
// fail with ErrStalePlan because the state moved.
func TestReconfigurePlanApply(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 2)
	ctx := context.Background()
	planner := NewPlanner(cfg)

	boot, err := planner.Plan(ctx, SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(ctx, boot, prov); err != nil {
		t.Fatal(err)
	}

	next, err := dynamic.ApplyDelta(w, dynamic.Delta{
		NewTopics:      []int64{75},
		NewSubscribers: 3,
		RateChanges:    map[workload.TopicID]int64{0: 500},
		Subscribe: []workload.Pair{
			{Topic: workload.TopicID(w.NumTopics()), Sub: workload.SubID(w.NumSubscribers())},
			{Topic: 2, Sub: workload.SubID(w.NumSubscribers() + 1)},
			{Topic: 0, Sub: workload.SubID(w.NumSubscribers() + 2)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Plan(ctx, SpecFromWorkload(next), StateOf(prov))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plan.Diff.Delta.NewTopics); n != 1 {
		t.Fatalf("diff has %d new topics, want 1", n)
	}
	rep, err := Apply(ctx, plan, prov)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost != plan.CostAfter || prov.Cost() != plan.CostAfter {
		t.Fatalf("applied cost %v (prov %v) != forecast %v", rep.Cost, prov.Cost(), plan.CostAfter)
	}
	// Same plan again: the fingerprint moved with the apply.
	if _, err := Apply(ctx, plan, prov); !errors.Is(err, ErrStalePlan) {
		t.Fatalf("re-apply returned %v, want ErrStalePlan", err)
	}
}

// TestApplyDryRun verifies a dry run reports the forecast without touching
// the provisioner, and that the real apply still succeeds afterwards.
func TestApplyDryRun(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 3)
	ctx := context.Background()
	plan, err := NewPlanner(cfg).Plan(ctx, SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := StateOf(prov).Fingerprint()
	rep, err := Apply(ctx, plan, prov, DryRun())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DryRun || rep.Cost != plan.CostAfter {
		t.Fatalf("dry-run report %+v", rep)
	}
	if StateOf(prov).Fingerprint() != fp {
		t.Fatal("dry run mutated the provisioner")
	}
	if _, err := Apply(ctx, plan, prov); err != nil {
		t.Fatalf("real apply after dry run: %v", err)
	}
}

// TestApplyObserverAbortRollsBack aborts mid-apply from the observer and
// checks the provisioner is left at its pre-apply state.
func TestApplyObserverAbortRollsBack(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 4)
	ctx := context.Background()
	plan, err := NewPlanner(cfg).Plan(ctx, SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) < 2 {
		t.Skip("plan too small to abort mid-way")
	}
	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := StateOf(prov).Fingerprint()
	boom := errors.New("operator said no")
	var seen int
	_, err = Apply(ctx, plan, prov, WithObserver(ObserverFunc(func(i, total int, s dynamic.Step) error {
		seen++
		if i >= 1 {
			return boom
		}
		return nil
	})))
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want observer abort", err)
	}
	if seen != 2 {
		t.Fatalf("observer fired %d times, want 2", seen)
	}
	if StateOf(prov).Fingerprint() != fp {
		t.Fatal("aborted apply mutated the provisioner")
	}
}

// TestApplyCancelledContext: cancellation mid-apply rolls back too.
func TestApplyCancelledContext(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 5)
	plan, err := NewPlanner(cfg).Plan(context.Background(), SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := StateOf(prov).Fingerprint()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Apply(ctx, plan, prov); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if StateOf(prov).Fingerprint() != fp {
		t.Fatal("cancelled apply mutated the provisioner")
	}
}

// TestApplyRejectsTamperedPlan: a plan whose steps no longer reproduce its
// target fails closed with ErrInvalidPlan.
func TestApplyRejectsTamperedPlan(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 6)
	ctx := context.Background()
	plan, err := NewPlanner(cfg).Plan(ctx, SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last step: the replay diverges from the target.
	plan.Steps = plan.Steps[:len(plan.Steps)-1]
	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(ctx, plan, prov); !errors.Is(err, ErrInvalidPlan) {
		t.Fatalf("got %v, want ErrInvalidPlan", err)
	}
}

// edit is a one-topic edit list for hand-built steps.
func edit(t workload.TopicID, subs ...workload.SubID) []core.TopicPlacement {
	return []core.TopicPlacement{{Topic: t, Subs: subs}}
}

// reconfigure is a reconfigure step of slot 0.
func reconfigure(remove, place []core.TopicPlacement) dynamic.Step {
	return dynamic.Step{Op: dynamic.OpReconfigure, VM: 0, Remove: remove, Place: place}
}

// TestPlanValidate covers the structural rejections.
func TestPlanValidate(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 7)
	good, err := NewPlanner(cfg).Plan(context.Background(), SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		name string
		fn   func(p *Plan)
	}{
		{"wrong version", func(p *Plan) { p.Version = 99 }},
		{"no fingerprint", func(p *Plan) { p.BaseFingerprint = "" }},
		{"no tau", func(p *Plan) { p.Tau = 0 }},
		{"no message size", func(p *Plan) { p.MessageBytes = 0 }},
		{"no target", func(p *Plan) { p.Target = nil }},
		{"step topic out of range", func(p *Plan) {
			p.Steps = append(p.Steps, reconfigure(nil, edit(workload.TopicID(w.NumTopics()), 0)))
		}},
		{"step sub out of range", func(p *Plan) {
			p.Steps = append(p.Steps, reconfigure(nil, edit(0, workload.SubID(w.NumSubscribers()))))
		}},
		{"removal sub out of range", func(p *Plan) {
			p.Steps = append(p.Steps, reconfigure(edit(0, -1), nil))
		}},
		{"step edit without subscribers", func(p *Plan) {
			p.Steps = append(p.Steps, reconfigure(nil, edit(0)))
		}},
		{"step negative slot", func(p *Plan) {
			p.Steps = append(p.Steps, dynamic.Step{Op: dynamic.OpRetireVM, VM: -1})
		}},
		{"reconfigure without an edit", func(p *Plan) {
			p.Steps = append(p.Steps, reconfigure(nil, nil))
		}},
		{"boot that removes", func(p *Plan) {
			p.Steps[0].Remove = edit(0, 0)
		}},
		{"retire that places", func(p *Plan) {
			p.Steps = append(p.Steps, dynamic.Step{Op: dynamic.OpRetireVM, VM: 0, Place: edit(0, 0)})
		}},
		{"v1 place op", func(p *Plan) {
			p.Steps = append(p.Steps, dynamic.Step{Op: dynamic.StepOp("place"), VM: 0, Place: edit(0, 0)})
		}},
		{"step unknown op", func(p *Plan) {
			p.Steps = append(p.Steps, dynamic.Step{Op: dynamic.StepOp("nope")})
		}},
		{"boot with zero capacity", func(p *Plan) {
			p.Steps = append(p.Steps, dynamic.Step{Op: dynamic.OpBootVM, VM: 99, Instance: pricing.C3Large})
		}},
		{"boot with unnamed instance", func(p *Plan) {
			p.Steps = append(p.Steps, dynamic.Step{Op: dynamic.OpBootVM, VM: 99, Capacity: 1})
		}},
		{"target vm with zero capacity", func(p *Plan) {
			p.Target.Allocation.VMs[0].CapacityBytesPerHour = 0
		}},
		{"target vm with negative capacity", func(p *Plan) {
			p.Target.Allocation.VMs[0].CapacityBytesPerHour = -5
		}},
		{"target vm with unnamed instance", func(p *Plan) {
			p.Target.Allocation.VMs[0].Instance = pricing.InstanceType{}
		}},
		{"target topic twice on a vm", func(p *Plan) {
			vm := p.Target.Allocation.VMs[0]
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: vm.Placements[0].Topic, Subs: []workload.SubID{0}})
		}},
		{"target subscriber twice in a placement", func(p *Plan) {
			pl := &p.Target.Allocation.VMs[0].Placements[0]
			pl.Subs = append(pl.Subs, pl.Subs[0])
		}},
		{"place step lists a subscriber twice", func(p *Plan) {
			p.Steps = append(p.Steps, reconfigure(nil, edit(0, 1, 0, 1)))
		}},
		{"remove step lists a subscriber twice", func(p *Plan) {
			p.Steps = append(p.Steps, reconfigure(edit(0, 2, 2), nil))
		}},
		{"boot lists a subscriber twice", func(p *Plan) {
			pl := &p.Steps[0].Place[0]
			pl.Subs = append(pl.Subs, pl.Subs[0])
		}},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := NewPlanner(cfg).Plan(context.Background(), SpecFromWorkload(w), nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.fn(cp)
			if err := cp.Validate(); !errors.Is(err, ErrInvalidPlan) {
				t.Fatalf("got %v, want ErrInvalidPlan", err)
			}
		})
	}
}

// TestNewPlanRejectsMalformedStates: a state placing a topic or a
// subscriber outside its workload, a topic twice on a VM or a subscriber
// twice in a placement is refused with ErrInvalidPlan as the current
// state, as the target and through Snapshot, before anything diffs it.
func TestNewPlanRejectsMalformedStates(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 7)
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := NewState(w, res.Allocation)
	malformed := []struct {
		name string
		fn   func(vm *core.VM)
	}{
		{"topic -1", func(vm *core.VM) {
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: -1, Subs: []workload.SubID{0}})
		}},
		{"topic past the last", func(vm *core.VM) {
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: workload.TopicID(w.NumTopics()), Subs: []workload.SubID{0}})
		}},
		{"subscriber -2", func(vm *core.VM) { vm.Placements[0].Subs[0] = -2 }},
		{"subscriber past the last", func(vm *core.VM) {
			vm.Placements[0].Subs[0] = workload.SubID(w.NumSubscribers())
		}},
		{"topic twice on a vm", func(vm *core.VM) {
			pl := vm.Placements[0]
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: pl.Topic, Subs: []workload.SubID{pl.Subs[0]}})
		}},
		{"subscriber twice in a placement", func(vm *core.VM) {
			pl := &vm.Placements[0]
			pl.Subs = append(pl.Subs, pl.Subs[0])
		}},
	}
	for _, m := range malformed {
		bad := &core.Allocation{MessageBytes: res.Allocation.MessageBytes, Fleet: res.Allocation.Fleet}
		for i, vm := range res.Allocation.VMs {
			bad.VMs = append(bad.VMs, core.SnapshotVM(vm, i))
		}
		m.fn(bad.VMs[0])
		for _, pos := range []struct {
			name string
			plan func() (*Plan, error)
		}{
			{"current", func() (*Plan, error) { return NewPlan(cfg, NewState(w, bad), good) }},
			{"target", func() (*Plan, error) { return NewPlan(cfg, good, NewState(w, bad)) }},
			{"snapshot", func() (*Plan, error) { return Snapshot(cfg, NewState(w, bad)) }},
		} {
			t.Run(m.name+" as "+pos.name, func(t *testing.T) {
				if _, err := pos.plan(); !errors.Is(err, ErrInvalidPlan) {
					t.Fatalf("got %v, want ErrInvalidPlan", err)
				}
			})
		}
	}
}

// TestSnapshotIsNoop: a snapshot plan applies as a no-op and leaves the
// fingerprint where it was.
func TestSnapshotIsNoop(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 8)
	ctx := context.Background()
	boot, err := NewPlanner(cfg).Plan(ctx, SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(ctx, boot, prov); err != nil {
		t.Fatal(err)
	}
	snap, err := Snapshot(cfg, StateOf(prov))
	if err != nil {
		t.Fatal(err)
	}
	if !snap.IsNoop() {
		t.Fatalf("snapshot has %d steps", len(snap.Steps))
	}
	fp := StateOf(prov).Fingerprint()
	if snap.BaseFingerprint != fp || snap.TargetFingerprint() != fp {
		t.Fatal("snapshot fingerprints do not pin the current state")
	}
	if _, err := Apply(ctx, snap, prov); err != nil {
		t.Fatal(err)
	}
	if StateOf(prov).Fingerprint() != fp {
		t.Fatal("no-op apply moved the state")
	}
}

// TestSpecOverrides: spec-level τ/fleet/message-size overrides reach the
// solve.
func TestSpecOverrides(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 9)
	ctx := context.Background()
	fleet, err := pricing.NewFleet(pricing.C3Large, pricing.C3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	fleet = fleet.WithBytesPerMbps(cfg.Model.CapacityBytesPerHour() / pricing.C3Large.LinkMbps)
	spec := Spec{Workload: w, Tau: 70, MessageBytes: 100, Fleet: fleet}
	plan, err := NewPlanner(cfg).Plan(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tau != 70 || plan.MessageBytes != 100 {
		t.Fatalf("plan carries τ=%d msg=%d", plan.Tau, plan.MessageBytes)
	}
	if plan.Fleet.Len() != 2 {
		t.Fatalf("plan fleet %v", plan.Fleet)
	}
	if _, err := NewPlanner(cfg).Plan(ctx, Spec{Workload: w, Strategy: "no-such"}, nil); !errors.Is(err, ErrInvalidPlan) {
		t.Fatalf("unknown strategy: got %v", err)
	}
}

// TestSpecFromEpoch builds specs from timeline epochs and rejects
// out-of-range ones.
func TestSpecFromEpoch(t *testing.T) {
	base := testWorkload(t, 10)
	tl, err := tracegen.Diurnal(base, tracegen.DefaultDiurnalConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromEpoch(tl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Workload != tl.Epochs[3] {
		t.Fatal("spec does not reference the epoch snapshot")
	}
	if _, err := SpecFromEpoch(tl, tl.NumEpochs()); err == nil {
		t.Fatal("out-of-range epoch accepted")
	}
}

// TestPlanIncrementalApply plans a delta through the incremental engine and
// applies it: the plan must carry the standard fingerprint/step semantics
// (stale detection, replay-to-target), and after the apply the
// provisioner's state must be the plan's target — with the persistent index
// still coherent, so a follow-up incremental update needs no reindex.
func TestPlanIncrementalApply(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 7)
	ctx := context.Background()

	boot, err := NewPlanner(cfg).Plan(ctx, SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(ctx, boot, prov); err != nil {
		t.Fatal(err)
	}

	d := dynamic.Delta{
		RateChanges: map[workload.TopicID]int64{0: w.Rate(0) + 40},
		Unsubscribe: []workload.Pair{},
	}
	plan, err := PlanIncremental(ctx, cfg, prov, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.BaseFingerprint != StateOf(prov).Fingerprint() {
		t.Fatal("incremental plan not pinned to the provisioner's state")
	}
	rep, err := Apply(ctx, plan, prov)
	if err != nil {
		t.Fatal(err)
	}
	if got := StateOf(prov).Fingerprint(); got != plan.TargetFingerprint() {
		t.Fatalf("post-apply fingerprint %s != plan target %s", got, plan.TargetFingerprint())
	}
	if rep.Cost != plan.CostAfter {
		t.Fatalf("applied cost %v != forecast %v", rep.Cost, plan.CostAfter)
	}
	if err := core.VerifyAllocation(prov.Workload(), prov.Selection(), prov.Allocation(), cfg); err != nil {
		t.Fatalf("applied allocation fails verification: %v", err)
	}
	// Replaying the same plan must now be stale — the state moved.
	if _, err := Apply(ctx, plan, prov); !errors.Is(err, ErrStalePlan) {
		t.Fatalf("second apply err = %v, want ErrStalePlan", err)
	}
	// An incremental no-op plan after the apply is a clean no-op.
	noop, err := PlanIncremental(ctx, cfg, prov, dynamic.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if !noop.IsNoop() {
		t.Fatalf("empty-delta incremental plan has %d steps", len(noop.Steps))
	}
}

// TestApplyReusesPlanStats: applied to the very state it was planned
// from, a plan's Diff.Stats are reported without diffing again. Stats
// edited together with NewPlan's record of them come back as edited,
// which a recomputation would not do.
func TestApplyReusesPlanStats(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 7)
	ctx := context.Background()
	boot, err := NewPlanner(cfg).Plan(ctx, SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(ctx, boot, prov); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanIncremental(ctx, cfg, prov, dynamic.Delta{RateChanges: map[workload.TopicID]int64{0: w.Rate(0) + 40}})
	if err != nil {
		t.Fatal(err)
	}
	plan.Diff.Stats.PairsKept += 424242
	plan.statsFrom.stats = plan.Diff.Stats
	rep, err := Apply(ctx, plan, prov)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != plan.Diff.Stats {
		t.Fatalf("report stats %+v, plan stats %+v", rep.Stats, plan.Diff.Stats)
	}
}
