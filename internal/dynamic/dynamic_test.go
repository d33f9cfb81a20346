package dynamic

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func testModel(capacity int64) pricing.Model {
	m := pricing.NewModel(pricing.C3Large)
	m.CapacityOverrideBytesPerHour = capacity
	return m
}

func testConfig(tau, capacity int64) core.Config {
	return core.Config{
		Tau:          tau,
		MessageBytes: 1,
		Model:        testModel(capacity),
		Opts:         core.OptAll,
	}
}

func sampleWorkload(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 15, Subscribers: 40, MaxFollowings: 4, MaxRate: 50, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewSolvesInitialAllocation(t *testing.T) {
	w := sampleWorkload(t, 1)
	p, err := NewContext(context.Background(), w, testConfig(30, 500))
	if err != nil {
		t.Fatal(err)
	}
	if p.Allocation().NumVMs() == 0 {
		t.Error("no VMs allocated")
	}
	if p.Cost() <= 0 {
		t.Error("non-positive cost")
	}
}

func TestUpdateNoChangeKeepsEverything(t *testing.T) {
	w := sampleWorkload(t, 2)
	p, err := NewContext(context.Background(), w, testConfig(30, 500))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.UpdateContext(context.Background(), Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PairsMoved != 0 {
		t.Errorf("PairsMoved = %d, want 0 for a no-op delta (deterministic solver)", stats.PairsMoved)
	}
	if stats.CostBefore != stats.CostAfter {
		t.Errorf("cost changed on no-op: %v → %v", stats.CostBefore, stats.CostAfter)
	}
}

func TestUpdateAppliesRateChange(t *testing.T) {
	w := sampleWorkload(t, 3)
	cfg := testConfig(30, 500)
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.UpdateContext(context.Background(), Delta{RateChanges: map[workload.TopicID]int64{0: 123}}); err != nil {
		t.Fatal(err)
	}
	if got := p.Workload().Rate(0); got != 123 {
		t.Errorf("rate = %d, want 123", got)
	}
	// The new allocation must still verify.
	if err := core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestUpdateRejectsBadDelta(t *testing.T) {
	w := sampleWorkload(t, 4)
	p, err := NewContext(context.Background(), w, testConfig(30, 500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.UpdateContext(context.Background(), Delta{RateChanges: map[workload.TopicID]int64{999: 5}}); err == nil {
		t.Error("unknown topic rate change accepted")
	}
	if _, err := p.UpdateContext(context.Background(), Delta{RateChanges: map[workload.TopicID]int64{0: 0}}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := p.UpdateContext(context.Background(), Delta{Subscribe: []workload.Pair{{Topic: 999, Sub: 0}}}); err == nil {
		t.Error("subscribe to unknown topic accepted")
	}
	if _, err := p.UpdateContext(context.Background(), Delta{Subscribe: []workload.Pair{{Topic: 0, Sub: 999}}}); err == nil {
		t.Error("subscribe of unknown subscriber accepted")
	}
}

func TestUpdateGrowsWorkload(t *testing.T) {
	w := sampleWorkload(t, 5)
	cfg := testConfig(30, 500)
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	numT, numV := w.NumTopics(), w.NumSubscribers()
	newTopic := workload.TopicID(numT)
	newSub := workload.SubID(numV)
	stats, err := p.UpdateContext(context.Background(), Delta{
		NewTopics:      []int64{77},
		NewSubscribers: 1,
		Subscribe: []workload.Pair{
			{Topic: newTopic, Sub: newSub},
			{Topic: 0, Sub: newSub},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workload().NumTopics() != numT+1 || p.Workload().NumSubscribers() != numV+1 {
		t.Errorf("workload = %d topics / %d subs, want %d/%d",
			p.Workload().NumTopics(), p.Workload().NumSubscribers(), numT+1, numV+1)
	}
	if stats.VMsAfter == 0 {
		t.Error("no VMs after growth")
	}
	if err := core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestUpdateUnsubscribe(t *testing.T) {
	w := sampleWorkload(t, 6)
	p, err := NewContext(context.Background(), w, testConfig(30, 500))
	if err != nil {
		t.Fatal(err)
	}
	// Unsubscribe subscriber 0 from everything.
	var un []workload.Pair
	for _, tt := range w.Topics(0) {
		un = append(un, workload.Pair{Topic: tt, Sub: 0})
	}
	if _, err := p.UpdateContext(context.Background(), Delta{Unsubscribe: un}); err != nil {
		t.Fatal(err)
	}
	if got := p.Workload().Followings(0); got != 0 {
		t.Errorf("subscriber 0 still has %d followings", got)
	}
	// Absent pair unsubscribe is a no-op.
	if _, err := p.UpdateContext(context.Background(), Delta{Unsubscribe: []workload.Pair{{Topic: 0, Sub: 0}}}); err != nil {
		t.Errorf("no-op unsubscribe failed: %v", err)
	}
}

func TestRepairCrashRestoresService(t *testing.T) {
	w := sampleWorkload(t, 7)
	cfg := testConfig(30, 400)
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Allocation().NumVMs()
	if before < 2 {
		t.Skipf("need ≥2 VMs, got %d", before)
	}
	victim := p.Allocation().VMs[0]
	victimPairs := int64(victim.NumPairs())

	stats, err := p.RepairCrashContext(context.Background(), victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PairsRehomed != victimPairs {
		t.Errorf("PairsRehomed = %d, want %d", stats.PairsRehomed, victimPairs)
	}
	// The repaired allocation serves every selected pair within capacity.
	if err := core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg); err != nil {
		t.Errorf("VerifyAllocation after repair: %v", err)
	}
	// VM IDs re-densified.
	for i, vm := range p.Allocation().VMs {
		if vm.ID != i {
			t.Errorf("vm at index %d has ID %d", i, vm.ID)
		}
	}
}

func TestRepairCrashUnknownVM(t *testing.T) {
	w := sampleWorkload(t, 8)
	p, err := NewContext(context.Background(), w, testConfig(30, 500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RepairCrashContext(context.Background(), 12345); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("err = %v, want ErrUnknownVM", err)
	}
}

func TestMigrationStatsAccounting(t *testing.T) {
	w := sampleWorkload(t, 9)
	cfg := testConfig(30, 500)
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Doubling a popular topic's rate forces churn.
	var busiest workload.TopicID
	for tid := 1; tid < w.NumTopics(); tid++ {
		if w.Followers(workload.TopicID(tid)) > w.Followers(busiest) {
			busiest = workload.TopicID(tid)
		}
	}
	stats, err := p.UpdateContext(context.Background(), Delta{
		RateChanges: map[workload.TopicID]int64{busiest: w.Rate(busiest)*3 + 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PairsMoved+stats.PairsKept == 0 {
		t.Error("no pairs accounted")
	}
	if stats.VMsBefore == 0 || stats.VMsAfter == 0 {
		t.Error("VM counts missing")
	}
}

func TestPropertyRepairAlwaysVerifies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        2 + rng.Intn(10),
			Subscribers:   5 + rng.Intn(30),
			MaxFollowings: 3,
			MaxRate:       40,
			Seed:          rng.Int63(),
		})
		if err != nil {
			return false
		}
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		cfg := testConfig(25, 3*maxRate)
		p, err := NewContext(context.Background(), w, cfg)
		if err != nil {
			return false
		}
		if p.Allocation().NumVMs() < 2 {
			return true
		}
		victim := p.Allocation().VMs[rng.Intn(p.Allocation().NumVMs())]
		if _, err := p.RepairCrashContext(context.Background(), victim.ID); err != nil {
			return false
		}
		return core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRepairCrashRedeploysCrashedVMType(t *testing.T) {
	// A hot topic (rate 40, 18 subscribers) that lands on big instances
	// plus a tail of tiny topics on small ones. Crashing the hot VM must
	// redeploy capacity of the crashed VM's own instance type, because
	// the small survivors cannot absorb 80-byte/h pairs.
	rates := []int64{40}
	subOff := []int64{0}
	var subTopics []workload.TopicID
	for i := 0; i < 18; i++ {
		subTopics = append(subTopics, 0)
		subOff = append(subOff, int64(len(subTopics)))
	}
	for i := 0; i < 6; i++ {
		rates = append(rates, 3)
		subTopics = append(subTopics, workload.TopicID(len(rates)-1))
		subOff = append(subOff, int64(len(subTopics)))
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := pricing.NewFleet(
		pricing.InstanceType{Name: "t.small", HourlyRate: 100, LinkMbps: 1},
		pricing.InstanceType{Name: "t.large", HourlyRate: 420, LinkMbps: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	fleet = fleet.WithBytesPerMbps(100) // caps 100 and 400
	cfg := core.Config{
		Tau:          10_000,
		MessageBytes: 1,
		Model:        pricing.Model{Instance: pricing.C3Large, Hours: 1, PerGB: 1000},
		Fleet:        fleet,
		Opts:         core.OptExpensiveTopicFirst,
	}
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hot *core.VM
	for _, vm := range p.Allocation().VMs {
		for _, pl := range vm.Placements {
			if pl.Topic == 0 {
				hot = vm
			}
		}
	}
	if hot == nil {
		t.Fatal("hot topic not placed")
	}
	if hot.Instance.Name != "t.large" {
		t.Fatalf("hot topic on %s, want t.large", hot.Instance.Name)
	}
	stats, err := p.RepairCrashContext(context.Background(), hot.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewVMs == 0 {
		t.Fatal("expected the repair to deploy replacement VMs")
	}
	after := p.Allocation()
	replacements := after.VMs[len(after.VMs)-stats.NewVMs:]
	for _, vm := range replacements {
		if vm.Instance.Name != "t.large" || vm.CapacityBytesPerHour != 400 {
			t.Errorf("replacement VM is %s (cap %d), want the crashed t.large (cap 400)",
				vm.Instance.Name, vm.CapacityBytesPerHour)
		}
	}
	for _, vm := range after.VMs {
		if vm.BytesPerHour() > vm.CapacityBytesPerHour {
			t.Errorf("vm %d (%s) over its own capacity: %d > %d",
				vm.ID, vm.Instance.Name, vm.BytesPerHour(), vm.CapacityBytesPerHour)
		}
	}
	if err := core.VerifyAllocation(w, p.Selection(), after, cfg); err != nil {
		t.Errorf("repaired allocation failed verification: %v", err)
	}
}

func TestDeltaValidateTable(t *testing.T) {
	// Against a 3-topic / 4-subscriber workload.
	const numT, numV = 3, 4
	cases := []struct {
		name string
		d    Delta
		want error // nil = valid
	}{
		{"empty", Delta{}, nil},
		{"growth", Delta{NewTopics: []int64{5}, NewSubscribers: 2}, nil},
		{"rate change", Delta{RateChanges: map[workload.TopicID]int64{2: 9}}, nil},
		{"subscribe new ids", Delta{
			NewTopics: []int64{5}, NewSubscribers: 1,
			Subscribe: []workload.Pair{{Topic: 3, Sub: 4}},
		}, nil},
		{"unsubscribe in range", Delta{Unsubscribe: []workload.Pair{{Topic: 0, Sub: 0}}}, nil},

		{"negative new-topic rate", Delta{NewTopics: []int64{0}}, ErrNegativeRate},
		{"negative rate change", Delta{RateChanges: map[workload.TopicID]int64{0: -3}}, ErrNegativeRate},
		{"negative subscribers", Delta{NewSubscribers: -1}, ErrBadDelta},
		{"rate change unknown topic", Delta{RateChanges: map[workload.TopicID]int64{7: 5}}, ErrUnknownReference},
		{"subscribe past new-topic range", Delta{
			NewTopics: []int64{5}, Subscribe: []workload.Pair{{Topic: 4, Sub: 0}},
		}, ErrUnknownReference},
		{"subscribe past new-sub range", Delta{
			NewSubscribers: 1, Subscribe: []workload.Pair{{Topic: 0, Sub: 5}},
		}, ErrUnknownReference},
		{"subscribe negative sub", Delta{Subscribe: []workload.Pair{{Topic: 0, Sub: -1}}}, ErrUnknownReference},
		{"unsubscribe unknown topic", Delta{Unsubscribe: []workload.Pair{{Topic: 9, Sub: 0}}}, ErrUnknownReference},
		{"duplicate subscribe", Delta{
			Subscribe: []workload.Pair{{Topic: 1, Sub: 1}, {Topic: 1, Sub: 1}},
		}, ErrDuplicatePair},
		{"duplicate unsubscribe", Delta{
			Unsubscribe: []workload.Pair{{Topic: 1, Sub: 1}, {Topic: 1, Sub: 1}},
		}, ErrDuplicatePair},
		{"subscribe and unsubscribe conflict", Delta{
			Subscribe:   []workload.Pair{{Topic: 1, Sub: 1}},
			Unsubscribe: []workload.Pair{{Topic: 1, Sub: 1}},
		}, ErrDuplicatePair},
	}
	for _, tc := range cases {
		err := tc.d.Validate(numT, numV)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestApplyDeltaValidates(t *testing.T) {
	w := sampleWorkload(t, 10)
	if _, err := ApplyDelta(w, Delta{Unsubscribe: []workload.Pair{{Topic: 9999, Sub: 0}}}); !errors.Is(err, ErrUnknownReference) {
		t.Errorf("out-of-range unsubscribe: err = %v, want ErrUnknownReference", err)
	}
	if _, err := ApplyDelta(w, Delta{NewTopics: []int64{-4}}); !errors.Is(err, ErrNegativeRate) {
		t.Errorf("negative new topic rate: err = %v, want ErrNegativeRate", err)
	}
}

// TestApplyDeltaKeepsRegionTags: existing topics and subscribers keep
// their regions, new ones land in the home region 0, and an untagged
// workload stays untagged.
func TestApplyDeltaKeepsRegionTags(t *testing.T) {
	w, err := tracegen.TagRegions(sampleWorkload(t, 12), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	delta := Delta{
		NewTopics:      []int64{9},
		NewSubscribers: 1,
		Subscribe: []workload.Pair{
			{Topic: workload.TopicID(w.NumTopics()), Sub: workload.SubID(w.NumSubscribers())},
		},
		Unsubscribe: []workload.Pair{{Topic: w.Topics(0)[0], Sub: 0}},
	}
	next, err := ApplyDelta(w, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !next.HasRegions() {
		t.Fatal("ApplyDelta dropped the region tags")
	}
	for i := 0; i < next.NumTopics(); i++ {
		id, want := workload.TopicID(i), 0
		if i < w.NumTopics() {
			want = w.TopicRegion(id)
		}
		if got := next.TopicRegion(id); got != want {
			t.Fatalf("topic %d in region %d, want %d", i, got, want)
		}
	}
	for v := 0; v < next.NumSubscribers(); v++ {
		id, want := workload.SubID(v), 0
		if v < w.NumSubscribers() {
			want = w.SubscriberRegion(id)
		}
		if got := next.SubscriberRegion(id); got != want {
			t.Fatalf("subscriber %d in region %d, want %d", v, got, want)
		}
	}
	plain, err := ApplyDelta(sampleWorkload(t, 12), delta)
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasRegions() {
		t.Fatal("untagged workload came back tagged")
	}
}

func TestDeltaBetweenRoundTrips(t *testing.T) {
	old := sampleWorkload(t, 11)
	// Build a changed successor: shifted rates, a new topic, a new
	// subscriber, some unsubscriptions.
	next, err := ApplyDelta(old, Delta{
		NewTopics:      []int64{123},
		NewSubscribers: 2,
		RateChanges:    map[workload.TopicID]int64{0: 77, 3: 1},
		Subscribe: []workload.Pair{
			{Topic: workload.TopicID(old.NumTopics()), Sub: workload.SubID(old.NumSubscribers())},
			{Topic: 1, Sub: workload.SubID(old.NumSubscribers() + 1)},
		},
		Unsubscribe: []workload.Pair{{Topic: old.Topics(0)[0], Sub: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeltaBetween(old, next)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(old.NumTopics(), old.NumSubscribers()); err != nil {
		t.Fatalf("DeltaBetween produced an invalid delta: %v", err)
	}
	back, err := ApplyDelta(old, d)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTopics() != next.NumTopics() || back.NumSubscribers() != next.NumSubscribers() {
		t.Fatalf("round trip shape %d/%d, want %d/%d",
			back.NumTopics(), back.NumSubscribers(), next.NumTopics(), next.NumSubscribers())
	}
	for i := 0; i < next.NumTopics(); i++ {
		if back.Rate(workload.TopicID(i)) != next.Rate(workload.TopicID(i)) {
			t.Errorf("rate[%d] = %d, want %d", i, back.Rate(workload.TopicID(i)), next.Rate(workload.TopicID(i)))
		}
	}
	for v := 0; v < next.NumSubscribers(); v++ {
		a, b := back.Topics(workload.SubID(v)), next.Topics(workload.SubID(v))
		if len(a) != len(b) {
			t.Errorf("sub %d has %d interests, want %d", v, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("sub %d interest %d = %d, want %d", v, i, a[i], b[i])
			}
		}
	}
}

func TestDeltaBetweenRejectsShrinking(t *testing.T) {
	big := sampleWorkload(t, 12)
	small, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 3, Subscribers: 5, MaxFollowings: 2, MaxRate: 20, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeltaBetween(big, small); !errors.Is(err, ErrBadDelta) {
		t.Errorf("err = %v, want ErrBadDelta", err)
	}
}

func TestPreviewDoesNotAdopt(t *testing.T) {
	w := sampleWorkload(t, 13)
	cfg := testConfig(30, 500)
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	costBefore := p.Cost()
	vmsBefore := p.Allocation().NumVMs()

	nextW, res, stats, err := p.PreviewContext(context.Background(), Delta{RateChanges: map[workload.TopicID]int64{0: 450}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workload() != w || p.Cost() != costBefore || p.Allocation().NumVMs() != vmsBefore {
		t.Error("Preview mutated the provisioner")
	}
	if stats.VMsBefore != vmsBefore {
		t.Errorf("stats.VMsBefore = %d, want %d", stats.VMsBefore, vmsBefore)
	}
	p.Adopt(nextW, res)
	if p.Workload().Rate(0) != 450 {
		t.Errorf("after Adopt, rate = %d, want 450", p.Workload().Rate(0))
	}
	if err := core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg); err != nil {
		t.Errorf("adopted state fails verification: %v", err)
	}
}

// TestMigrationBetweenExported checks the exported churn diff,
// MigrationStatsBetween: a self-diff keeps every pair and carries the
// allocation's cost and size, and a diff to the empty allocation moves
// every pair.
func TestMigrationBetweenExported(t *testing.T) {
	w := sampleWorkload(t, 14)
	cfg := testConfig(30, 500)
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := MigrationStatsBetween(p.Allocation(), p.Allocation(), cfg.Model)
	if same.PairsMoved != 0 || same.PairsKept == 0 {
		t.Errorf("self-diff moved %d / kept %d, want 0 / >0", same.PairsMoved, same.PairsKept)
	}
	if same.CostBefore != p.Cost() || same.CostAfter != p.Cost() || same.VMsAfter != p.Allocation().NumVMs() {
		t.Errorf("self-diff stats %+v do not carry the allocation's cost and size", same)
	}
	empty := &core.Allocation{}
	gone := MigrationStatsBetween(p.Allocation(), empty, cfg.Model)
	if gone.PairsMoved != same.PairsKept || gone.VMsAfter != 0 || gone.CostAfter != 0 {
		t.Errorf("diff to empty moved %d to %d VMs at %v, want every pair (%d) to none at zero cost",
			gone.PairsMoved, gone.VMsAfter, gone.CostAfter, same.PairsKept)
	}
}

// TestRepairCrashGroupCorrelated kills every VM hosting some replicated
// topic in one correlated group — the AZ-storm shape — and checks that the
// repair re-places all of the topic's pairs instead of silently dropping
// them (none of the failed copies may masquerade as a survivor).
func TestRepairCrashGroupCorrelated(t *testing.T) {
	w := sampleWorkload(t, 10)
	cfg := testConfig(30, 300) // tight capacity → topics split across VMs
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alloc := p.Allocation()
	if alloc.NumVMs() < 3 {
		t.Skipf("need ≥3 VMs, got %d", alloc.NumVMs())
	}
	// Find a topic spread over the most VMs; its host set is the group.
	hosts := make(map[workload.TopicID][]int)
	for _, vm := range alloc.VMs {
		for _, g := range vm.Placements {
			hosts[g.Topic] = append(hosts[g.Topic], vm.ID)
		}
	}
	var victimTopic workload.TopicID
	var group []int
	for tid, ids := range hosts {
		if len(ids) > len(group) {
			victimTopic, group = tid, ids
		}
	}
	if len(group) < 2 {
		// Fall back to the first two VMs: still a correlated multi-VM loss.
		group = []int{alloc.VMs[0].ID, alloc.VMs[1].ID}
	}
	var lostPairs int64
	byID := make(map[int]*core.VM)
	for _, vm := range alloc.VMs {
		byID[vm.ID] = vm
	}
	for _, id := range group {
		lostPairs += int64(byID[id].NumPairs())
	}

	stats, err := p.RepairCrashGroupContext(context.Background(), group)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PairsRehomed != lostPairs {
		t.Errorf("PairsRehomed = %d, want %d (every pair of the group)", stats.PairsRehomed, lostPairs)
	}
	// Every selected pair — including all of the victim topic's replicas —
	// is served again, within capacity.
	if err := core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg); err != nil {
		t.Errorf("VerifyAllocation after group repair: %v", err)
	}
	served := 0
	for _, vm := range p.Allocation().VMs {
		for _, g := range vm.Placements {
			if g.Topic == victimTopic {
				served += len(g.Subs)
			}
		}
	}
	if want := len(p.Selection().SelectedSubscribers(victimTopic)); served != want {
		t.Errorf("victim topic serves %d subscribers after repair, want %d", served, want)
	}
	for i, vm := range p.Allocation().VMs {
		if vm.ID != i {
			t.Errorf("vm at index %d has ID %d — not re-densified", i, vm.ID)
		}
	}
}

func TestRepairCrashGroupRejectsBadGroups(t *testing.T) {
	w := sampleWorkload(t, 11)
	cfg := testConfig(30, 500)
	p, err := NewContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Allocation().NumVMs()
	if _, err := p.RepairCrashGroupContext(context.Background(), []int{0, 0}); !errors.Is(err, ErrBadDelta) {
		t.Errorf("duplicate IDs: err = %v, want ErrBadDelta", err)
	}
	if _, err := p.RepairCrashGroupContext(context.Background(), []int{0, 4242}); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("unknown ID: err = %v, want ErrUnknownVM", err)
	}
	// More distinct IDs than the fleet has VMs, all unknown.
	many := make([]int, before+1)
	for i := range many {
		many[i] = 1000 + i
	}
	if _, err := p.RepairCrashGroupContext(context.Background(), many); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("group larger than the fleet: err = %v, want ErrUnknownVM", err)
	}
	if got := p.Allocation().NumVMs(); got != before {
		t.Errorf("failed repair mutated the allocation: %d → %d VMs", before, got)
	}
	// Empty group is a no-op reporting current state.
	stats, err := p.RepairCrashGroupContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VMsAfter != before || stats.PairsRehomed != 0 {
		t.Errorf("empty group: stats = %+v", stats)
	}
	// Any ID is unknown to an empty fleet.
	p.Adopt(w, &core.Result{Selection: p.Selection(), Allocation: &core.Allocation{}})
	if _, err := p.RepairCrashContext(context.Background(), 0); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("empty fleet: err = %v, want ErrUnknownVM", err)
	}
}
