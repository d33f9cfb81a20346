package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// TestIndexMatchesAppendBuild compares the index built over the pair rows
// with the append-and-insertion-sort build it replaced, field by field: on
// random solved allocations with shuffled placements, empty VMs and
// corruptions both builds must refuse, and on the scale sweep's 20k-pair
// churn workload before and after one incremental epoch, the state that
// ran the epoch included.
func TestIndexMatchesAppendBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 600
	for c := 0; c < 300; c++ {
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics: 1 + rng.Intn(20), Subscribers: 1 + rng.Intn(60), MaxFollowings: 1 + rng.Intn(6), MaxRate: 80, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Tau: 1 + rng.Int63n(200), MessageBytes: 1, Model: model, Opts: core.OptAll}
		res, err := core.Solve(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		alloc := corruptedCopy(rng, res.Allocation, w)
		if d := core.IndexVsAppendBuild(w, alloc, cfg); d != "" {
			t.Fatalf("case %d: %s", c, d)
		}
	}

	w, cfg, err := experiments.ChurnSetup(20_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.IndexVsAppendBuild(w, res.Allocation, cfg); d != "" {
		t.Fatalf("before the epoch: %s", d)
	}
	s, err := res.Allocation.Index(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := experiments.ChurnDelta(rand.New(rand.NewSource(3)), w, 0.01)
	next, err := dynamic.ApplyDelta(w, d)
	if err != nil {
		t.Fatal(err)
	}
	changed := make([]workload.TopicID, 0, len(d.RateChanges))
	for tt := range d.RateChanges {
		changed = append(changed, tt)
	}
	slices.Sort(changed)
	ctx := context.Background()
	if err := s.BeginEpoch(ctx, next, changed); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Unsubscribe {
		s.Unsubscribe(p.Topic, p.Sub)
	}
	for _, p := range d.Subscribe {
		s.Subscribe(p.Topic, p.Sub)
	}
	out, err := s.FinishEpoch(ctx, 64+4*int64(len(d.Subscribe)+len(d.Unsubscribe)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Inserted == 0 || out.Dropped == 0 {
		t.Fatalf("the epoch inserted %d and dropped %d pairs; want both", out.Inserted, out.Dropped)
	}
	if d := core.LiveIndexVsAppendBuild(s); d != "" {
		t.Fatalf("after the epoch, live state: %s", d)
	}
	if d := core.IndexVsAppendBuild(next, out.Result.Allocation, cfg); d != "" {
		t.Fatalf("after the epoch: %s", d)
	}
}

// corruptedCopy copies a with every VM's placements and subscriber lists
// shuffled and, at random, an empty VM appended or one corruption both
// index builds refuse: a pair on a second VM, a subscriber listed twice
// in a placement, or a topic past the workload's last.
func corruptedCopy(rng *rand.Rand, a *core.Allocation, w *workload.Workload) *core.Allocation {
	out := &core.Allocation{Fleet: a.Fleet, MessageBytes: a.MessageBytes}
	for i, vm := range a.VMs {
		c := core.SnapshotVM(vm, i)
		rng.Shuffle(len(c.Placements), func(i, j int) { c.Placements[i], c.Placements[j] = c.Placements[j], c.Placements[i] })
		for _, p := range c.Placements {
			rng.Shuffle(len(p.Subs), func(i, j int) { p.Subs[i], p.Subs[j] = p.Subs[j], p.Subs[i] })
		}
		out.VMs = append(out.VMs, c)
	}
	if rng.Intn(4) == 0 {
		out.VMs = append(out.VMs, &core.VM{ID: len(out.VMs), Instance: pricing.C3Large})
	}
	var p *core.TopicPlacement
	for _, vm := range out.VMs {
		if len(vm.Placements) > 0 {
			p = &vm.Placements[rng.Intn(len(vm.Placements))]
			break
		}
	}
	if p == nil || len(p.Subs) == 0 {
		return out
	}
	switch rng.Intn(6) {
	case 0:
		other := out.VMs[len(out.VMs)-1]
		other.Placements = append(other.Placements, core.TopicPlacement{Topic: p.Topic, Subs: p.Subs[:1:1]})
	case 1:
		p.Subs = append(p.Subs, p.Subs[0])
	case 2:
		p.Topic = workload.TopicID(w.NumTopics() + rng.Intn(3))
	}
	return out
}
