package dynamic

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func stepsTestConfig() core.Config {
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 600_000
	return core.DefaultConfig(40, model)
}

func stepsTestWorkload(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 12, Subscribers: 40, MaxFollowings: 4, MaxRate: 120, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStepsBetweenReplayRoundTrip checks the core plan contract: the steps
// extracted between two solved allocations replay the before state into
// the after state exactly (same fingerprint under the after workload).
func TestStepsBetweenReplayRoundTrip(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 7)
	prov, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := prov.Allocation()

	delta := Delta{
		NewTopics:      []int64{90, 15},
		NewSubscribers: 5,
		RateChanges:    map[workload.TopicID]int64{0: 200, 3: 5},
		Subscribe: []workload.Pair{
			{Topic: workload.TopicID(w.NumTopics()), Sub: workload.SubID(w.NumSubscribers())},
			{Topic: 1, Sub: workload.SubID(w.NumSubscribers() + 1)},
			{Topic: workload.TopicID(w.NumTopics() + 1), Sub: 2},
		},
		Unsubscribe: []workload.Pair{{Topic: w.Topics(0)[0], Sub: 0}},
	}
	next, res, _, err := prov.PreviewContext(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	after := res.Allocation

	steps := StepsBetween(before, after)
	if len(steps) == 0 {
		t.Fatal("no steps extracted between two different allocations")
	}
	got, err := ReplaySteps(before, next, cfg.MessageBytes, steps)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if gf, wf := StateFingerprint(next, got), StateFingerprint(next, after); gf != wf {
		t.Fatalf("replayed fingerprint %s != target %s", gf, wf)
	}
	if got.Cost(cfg.Model) != after.Cost(cfg.Model) {
		t.Fatalf("replayed cost %v != target %v", got.Cost(cfg.Model), after.Cost(cfg.Model))
	}
	// Position-based churn of the replayed state matches the direct diff.
	if a, b := migrationBetween(before, got), migrationBetween(before, after); a != b {
		t.Fatalf("replayed migration stats %+v != direct %+v", a, b)
	}
}

// TestStepsBetweenBootstrap extracts a plan from the empty state: one
// boot-vm step per VM, each placing the VM's pairs.
func TestStepsBetweenBootstrap(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 11)
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := StepsBetween(nil, res.Allocation)
	for i, s := range steps {
		if s.Op != OpBootVM || s.VM != i || len(s.Remove) != 0 {
			t.Fatalf("bootstrap step %d is %s", i, s)
		}
	}
	if len(steps) != res.Allocation.NumVMs() {
		t.Fatalf("bootstrap has %d steps for %d VMs; want one boot per VM", len(steps), res.Allocation.NumVMs())
	}
	got, err := ReplaySteps(&core.Allocation{MessageBytes: cfg.MessageBytes}, w, cfg.MessageBytes, steps)
	if err != nil {
		t.Fatal(err)
	}
	if gf, wf := StateFingerprint(w, got), StateFingerprint(w, res.Allocation); gf != wf {
		t.Fatalf("bootstrap replay fingerprint %s != solved %s", gf, wf)
	}
}

// TestStepsBetweenScaleDown retires a trailing slot in one step that
// removes its placements, and replay tolerates the shrink.
func TestStepsBetweenScaleDown(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 5)
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation.NumVMs() < 2 {
		t.Skip("needs at least two VMs")
	}
	// Target: everything squeezed off the last VM is simply dropped.
	shrunk := &core.Allocation{
		VMs:          res.Allocation.VMs[:res.Allocation.NumVMs()-1],
		Fleet:        res.Allocation.Fleet,
		MessageBytes: res.Allocation.MessageBytes,
	}
	steps := StepsBetween(res.Allocation, shrunk)
	last := res.Allocation.NumVMs() - 1
	if len(steps) != 1 || steps[0].Op != OpRetireVM || steps[0].VM != last || len(steps[0].Place) != 0 {
		t.Fatalf("scale-down plan is %v; want one retire-vm of slot %d", steps, last)
	}
	if got, want := len(steps[0].Remove), len(res.Allocation.VMs[last].Placements); got != want {
		t.Fatalf("retire-vm removes %d topics, the slot serves %d", got, want)
	}
	got, err := ReplaySteps(res.Allocation, w, cfg.MessageBytes, steps)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVMs() != shrunk.NumVMs() {
		t.Fatalf("replayed %d VMs, want %d", got.NumVMs(), shrunk.NumVMs())
	}
}

// TestReplayStepsRejectsBadSteps exercises the structural validation.
func TestReplayStepsRejectsBadSteps(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 3)
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := res.Allocation
	// A subscriber not served by VM 0's first placement, for the
	// remove-unplaced case.
	firstPlacement := base.VMs[0].Placements[0]
	unplaced := workload.SubID(-1)
	served := make(map[workload.SubID]bool, len(firstPlacement.Subs))
	for _, v := range firstPlacement.Subs {
		served[v] = true
	}
	for v := 0; v < w.NumSubscribers(); v++ {
		if !served[workload.SubID(v)] {
			unplaced = workload.SubID(v)
			break
		}
	}
	if unplaced < 0 {
		t.Skip("every subscriber is on the first placement")
	}
	unserved := workload.TopicID(-1)
	for tp := 0; tp < w.NumTopics() && unserved < 0; tp++ {
		unserved = workload.TopicID(tp)
		for _, p := range base.VMs[0].Placements {
			if p.Topic == unserved {
				unserved = -1
			}
		}
	}
	if unserved < 0 {
		t.Skip("vm 0 serves every topic")
	}
	edit := func(tp workload.TopicID, subs ...workload.SubID) []core.TopicPlacement {
		return []core.TopicPlacement{{Topic: tp, Subs: subs}}
	}
	numT, numV := workload.TopicID(w.NumTopics()), workload.SubID(w.NumSubscribers())
	// Each case pins the error text as well as ErrBadStep.
	cases := []struct {
		name, text string
		step       Step
	}{
		{"place on unknown slot", "slot 99 outside fleet of",
			Step{Op: OpReconfigure, VM: 99, Place: edit(0, 0)}},
		{"place unknown topic", fmt.Sprintf("topic %d outside the workload (%d topics)", numT, numT),
			Step{Op: OpReconfigure, VM: 0, Place: edit(numT, 0)}},
		{"place unknown subscriber", fmt.Sprintf("subscriber %d outside the workload (%d subscribers)", numV, numV),
			Step{Op: OpReconfigure, VM: 0, Place: edit(0, numV)}},
		{"remove unplaced pair", fmt.Sprintf("slot 0 serves only 0 of the 1 listed pairs of topic %d", firstPlacement.Topic),
			Step{Op: OpReconfigure, VM: 0, Remove: edit(firstPlacement.Topic, unplaced)}},
		{"remove unserved topic", fmt.Sprintf("slot 0 does not serve topic %d", unserved),
			Step{Op: OpReconfigure, VM: 0, Remove: edit(unserved, 0)}},
		{"remove outside the workload", fmt.Sprintf("slot 0 does not serve topic %d", numT),
			Step{Op: OpReconfigure, VM: 0, Remove: edit(numT, 0)}},
		{"retire non-empty", fmt.Sprintf("retiring slot 0 with %d placements still on it", len(base.VMs[0].Placements)),
			Step{Op: OpRetireVM, VM: 0}},
		{"retire that places", fmt.Sprintf("retiring slot 0 with %d placements still on it", len(base.VMs[0].Placements)+1),
			Step{Op: OpRetireVM, VM: 0, Place: edit(unserved, 0)}},
		{"boot occupied slot", "slot 0 is already occupied",
			Step{Op: OpBootVM, VM: 0, Instance: pricing.C3Large, Capacity: 1}},
		{"boot that removes", fmt.Sprintf("slot %d does not serve topic 0", len(base.VMs)),
			Step{Op: OpBootVM, VM: len(base.VMs), Instance: pricing.C3Large, Capacity: 1, Remove: edit(0, 0)}},
		{"unknown op", `unknown op "explode"`,
			Step{Op: StepOp("explode"), VM: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReplaySteps(base, w, cfg.MessageBytes, []Step{tc.step})
			if !errors.Is(err, ErrBadStep) {
				t.Fatalf("got %v, want ErrBadStep", err)
			}
			if !strings.Contains(err.Error(), tc.text) {
				t.Fatalf("error %q does not say %q", err, tc.text)
			}
		})
	}
	// Replay never mutates the base allocation even on failure.
	fp := StateFingerprint(w, base)
	first := base.VMs[0].Placements[0]
	_, _ = ReplaySteps(base, w, cfg.MessageBytes, []Step{
		{Op: OpReconfigure, VM: 0, Remove: edit(first.Topic, first.Subs...), Place: edit(unserved, 0)},
		{Op: OpRetireVM, VM: 99},
	})
	if StateFingerprint(w, base) != fp {
		t.Fatal("failed replay mutated the base allocation")
	}
}

// TestStateFingerprintSensitivity: the fingerprint moves with every part
// of the state a plan depends on, and nil hashes like empty.
func TestStateFingerprintSensitivity(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 9)
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := StateFingerprint(w, res.Allocation)
	if base != StateFingerprint(w, res.Allocation) {
		t.Fatal("fingerprint is not deterministic")
	}
	if StateFingerprint(nil, nil) != StateFingerprint(&workload.Workload{}, &core.Allocation{}) {
		t.Fatal("nil state does not hash like the empty state")
	}

	w2, err := ApplyDelta(w, Delta{RateChanges: map[workload.TopicID]int64{0: w.Rate(0) + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if StateFingerprint(w2, res.Allocation) == base {
		t.Fatal("rate change did not move the fingerprint")
	}

	clone, err := ReplaySteps(res.Allocation, w, cfg.MessageBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if StateFingerprint(w, clone) != base {
		t.Fatal("identical allocation hashes differently")
	}
	clone.VMs[0].Instance = pricing.C3XLarge
	if StateFingerprint(w, clone) == base {
		t.Fatal("instance change did not move the fingerprint")
	}
}

// TestRepairCrashContextCancelled: a cancelled repair leaves the
// provisioner state untouched.
func TestRepairCrashContextCancelled(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 13)
	prov, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Allocation().NumVMs() < 2 {
		t.Skip("needs at least two VMs")
	}
	fp := StateFingerprint(prov.Workload(), prov.Allocation())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prov.RepairCrashContext(ctx, prov.Allocation().VMs[0].ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if StateFingerprint(prov.Workload(), prov.Allocation()) != fp {
		t.Fatal("cancelled repair mutated the provisioner state")
	}
	// And a successful repair still works through the context path.
	if _, err := prov.RepairCrashContext(context.Background(), prov.Allocation().VMs[0].ID); err != nil {
		t.Fatal(err)
	}
}

// TestRestore rebuilds a provisioner from persisted state and keeps it
// operational (repair + update) without an initial solve.
func TestRestore(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 21)
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prov := Restore(w, res, cfg)
	if prov.Cost() != res.Allocation.Cost(cfg.Model) {
		t.Fatalf("restored cost %v != solved %v", prov.Cost(), res.Allocation.Cost(cfg.Model))
	}
	if _, err := prov.UpdateContext(context.Background(), Delta{RateChanges: map[workload.TopicID]int64{1: 77}}); err != nil {
		t.Fatalf("update after restore: %v", err)
	}
}
