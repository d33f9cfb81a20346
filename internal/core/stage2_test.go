package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// testModel builds a pricing model with an explicit capacity (bytes/hour)
// and optionally custom VM/transfer prices.
func testModel(capacity int64) pricing.Model {
	m := pricing.NewModel(pricing.C3Large)
	m.CapacityOverrideBytesPerHour = capacity
	return m
}

// packFunc is the Config.Stage2 signature.
type packFunc = func(context.Context, *Selection, Config) (*Allocation, error)

func configWith(tau int64, capacity int64, s2 packFunc, opts OptFlags) Config {
	return Config{
		Tau:          tau,
		MessageBytes: 1, // 1-byte messages: rates are bytes/hour directly
		Model:        testModel(capacity),
		Stage2:       s2,
		Opts:         opts,
	}
}

func TestFFBPSinglePairPerVMWhenTight(t *testing.T) {
	// BC fits exactly one pair (incoming + outgoing): every pair gets its
	// own VM.
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}, {0}, {0}})
	sel := SelectAllPairs(w)
	cfg := configWith(100, 10, FFBinPackingContext, 0)
	alloc, err := FFBinPackingContext(context.Background(), sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.NumVMs(); got != 3 {
		t.Errorf("NumVMs = %d, want 3", got)
	}
	for _, vm := range alloc.VMs {
		if vm.BytesPerHour() != 10 {
			t.Errorf("vm %d bytes = %d, want 10", vm.ID, vm.BytesPerHour())
		}
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestFFBPReusesVMs(t *testing.T) {
	// BC = 40 fits topic (rate 5) incoming once plus several pairs.
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}, {0}, {0}, {0}})
	sel := SelectAllPairs(w)
	cfg := configWith(100, 40, FFBinPackingContext, 0)
	alloc, err := FFBinPackingContext(context.Background(), sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// incoming 5 + 4 pairs × 5 = 25 ≤ 40: one VM suffices.
	if got := alloc.NumVMs(); got != 1 {
		t.Errorf("NumVMs = %d, want 1", got)
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestFFBPInfeasible(t *testing.T) {
	w := mustWorkload(t, []int64{100}, [][]workload.TopicID{{0}})
	sel := SelectAllPairs(w)
	cfg := configWith(1000, 150, FFBinPackingContext, 0) // needs 200 > 150
	if _, err := FFBinPackingContext(context.Background(), sel, cfg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestCBPGroupsTopics(t *testing.T) {
	// Two topics, rate 10, 8 subscribers each; BC = 100. Grouped packing
	// fits topic 1 entirely on VM1 (90 bytes) and topic 2 on VM2, one
	// incoming stream each. FFBP with interleaved pair order splits both
	// topics across VMs, paying 4 incoming streams (the paper's Fig. 1
	// phenomenon).
	interests := make([][]workload.TopicID, 8)
	for i := range interests {
		interests[i] = []workload.TopicID{0, 1}
	}
	w := mustWorkload(t, []int64{10, 10}, interests)
	sel := SelectAllPairs(w)

	cbpCfg := configWith(1000, 100, CustomBinPackingContext, 0)
	cbp, err := CustomBinPackingContext(context.Background(), sel, cbpCfg)
	if err != nil {
		t.Fatal(err)
	}
	ffCfg := configWith(1000, 100, FFBinPackingContext, 0)
	ff, err := FFBinPackingContext(context.Background(), sel, ffCfg)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := cbp.TotalBytesPerHour(), int64(180); got != want {
		t.Errorf("CBP bytes = %d, want %d", got, want)
	}
	if got, want := ff.TotalBytesPerHour(), int64(200); got != want {
		t.Errorf("FFBP bytes = %d, want %d", got, want)
	}
	if cbp.NumVMs() != 2 || ff.NumVMs() != 2 {
		t.Errorf("VMs: CBP %d FFBP %d, want 2/2", cbp.NumVMs(), ff.NumVMs())
	}
	// Each topic must live on exactly one VM under CBP.
	for _, vm := range cbp.VMs {
		if len(vm.Placements) != 1 {
			t.Errorf("CBP vm %d hosts %d topics, want 1", vm.ID, len(vm.Placements))
		}
	}
	for _, alloc := range []*Allocation{cbp, ff} {
		if err := VerifyAllocation(w, sel, alloc, cbpCfg); err != nil {
			t.Errorf("VerifyAllocation: %v", err)
		}
	}
}

func TestFigure1Example(t *testing.T) {
	// The paper's running example (§III-B, Fig. 1): topics t1
	// (20 events/min) and t2 (10 events/min), 1 KB messages, pairs
	// (t1,v1),(t2,v1),(t2,v2),(t1,v2),(t2,v3). First-fit at pair
	// granularity splits topics across VMs and pays duplicated incoming
	// streams; grouped packing does not. We use rate units directly
	// (MessageBytes=1, KB/min scale).
	w := mustWorkload(t, []int64{20, 10}, [][]workload.TopicID{
		{0, 1}, {0, 1}, {1},
	})
	sel := SelectAllPairs(w)

	// Capacity 70: grouped → t1 (3·20=60) on VM1, t2 (4·10=40) on VM2
	// with room to spare; total 100 — matching the shape of Fig. 1d where
	// every topic lives on one VM (50 KB/min in the paper's pre-loaded
	// variant).
	cfg := configWith(1000, 70, CustomBinPackingContext, OptExpensiveTopicFirst)
	cbp, err := CustomBinPackingContext(context.Background(), sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cbp.TotalBytesPerHour(); got != 100 {
		t.Errorf("CBP total = %d, want 100 (no topic split)", got)
	}
	for _, vm := range cbp.VMs {
		if len(vm.Placements) != 1 {
			t.Errorf("vm %d hosts %d topics, want 1", vm.ID, len(vm.Placements))
		}
	}

	// FFBP on the same instance in pair order splits t2 (and pays its
	// incoming stream twice), the Fig. 1b phenomenon.
	ffCfg := configWith(1000, 70, FFBinPackingContext, 0)
	ff, err := FFBinPackingContext(context.Background(), sel, ffCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ff.TotalBytesPerHour(); got <= 100 {
		t.Errorf("FFBP total = %d, want > 100 (split-topic overhead)", got)
	}
	if err := VerifyAllocation(w, sel, ff, ffCfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestCBPExpensiveTopicFirstOrders(t *testing.T) {
	// Topic 1 has twice the volume of topic 0; with the flag set it must
	// be placed first (VM 0).
	w := mustWorkload(t, []int64{10, 20}, [][]workload.TopicID{
		{0, 1}, {0, 1},
	})
	sel := SelectAllPairs(w)
	cfg := configWith(1000, 60, CustomBinPackingContext, OptExpensiveTopicFirst)
	alloc, err := CustomBinPackingContext(context.Background(), sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.VMs) == 0 || alloc.VMs[0].Placements[0].Topic != 1 {
		t.Errorf("first placement = %+v, want topic 1 first", alloc.VMs[0].Placements)
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestPickExistingVM(t *testing.T) {
	// Three VMs with free capacities 10, 55, 30. For a group of rate 5
	// (hosting one pair needs 2·5 = 10 free), first-fit returns VM 0 while
	// most-free returns VM 1.
	mk := func(free int64) *vmState {
		b := newVMState(0, pricing.C3Large, free)
		return b
	}
	vms := []*vmState{mk(10), mk(55), mk(30)}
	g := topicGroup{topic: 9, rb: 5, subs: make([]workload.SubID, 4)}

	if got := pickExistingVM(vms, g, false); got != vms[0] {
		t.Errorf("first-fit picked free=%d, want the first fitting VM (free=10)", got.free)
	}
	if got := pickExistingVM(vms, g, true); got != vms[1] {
		t.Errorf("most-free picked free=%d, want 55", got.free)
	}

	// When only a VM that already hosts the topic has marginal room, the
	// incoming stream is not charged again: free=5 suffices for rb=5.
	host := mk(5)
	host.topicIdx[g.topic] = 0
	host.vm.Placements = append(host.vm.Placements, TopicPlacement{Topic: g.topic})
	vms = []*vmState{mk(9), host}
	if got := pickExistingVM(vms, g, false); got != host {
		t.Error("first-fit should pick the topic-hosting VM with free=5")
	}
	if got := pickExistingVM(vms, g, true); got != host {
		// The free=9 VM looks most free but cannot host a new topic's
		// pair (needs 10); the policy must skip it and return the
		// topic-hosting VM.
		t.Error("most-free should skip the free=9 VM that cannot host the pair")
	}

	// No VM can host: nil.
	vms = []*vmState{mk(9), mk(3)}
	if got := pickExistingVM(vms, g, true); got != nil {
		t.Errorf("expected nil, got free=%d", got.free)
	}
}

func TestCBPMostFreeVMReducesSplitOverhead(t *testing.T) {
	// BC=100. Weight order: tA (rate 45, 1 sub, weight 45) then tB
	// (rate 5, 9 subs, weight 45; tie broken by ID) then tC (rate 20,
	// 2 subs, weight 40). tA fills VM0 to 90. tB overflows, drops one
	// pair onto VM0 (filling it) and the rest onto VM1. tC overflows
	// VM1's remaining 55, is distributed: one pair on VM1, one on a new
	// VM2. The test pins this expected shape and verifies the invariants.
	w := mustWorkload(t, []int64{45, 5, 20}, [][]workload.TopicID{
		{0},
		{1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}, {1},
		{2}, {2},
	})
	sel := SelectAllPairs(w)
	cfg := configWith(1000, 100, CustomBinPackingContext, OptExpensiveTopicFirst|OptMostFreeVM)
	alloc, err := CustomBinPackingContext(context.Background(), sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.NumVMs(); got != 3 {
		t.Fatalf("NumVMs = %d, want 3", got)
	}
	if free0 := cfg.Model.CapacityBytesPerHour() - alloc.VMs[0].BytesPerHour(); free0 != 0 {
		t.Errorf("VM0 free = %d, want 0 (topped off by tB's chunk)", free0)
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestVMBandwidthTradeoff(t *testing.T) {
	// The §II-A trade-off: with expensive bandwidth and cheap VMs, the
	// cost-based decision (e) deploys more VMs to avoid splitting topics;
	// without it, CBP fills existing VMs and pays duplicate incoming
	// streams. 3 VMs with 150 bytes/h beats 2 VMs with 160 bytes/h when
	// bandwidth dominates the price.
	w := mustWorkload(t, []int64{10, 10, 10}, [][]workload.TopicID{
		{0}, {0}, {0}, {0},
		{1}, {1}, {1}, {1},
		{2}, {2}, {2}, {2},
	})
	sel := SelectAllPairs(w)

	// Cheap VMs, expensive transfer.
	expensiveBW := pricing.Model{
		Instance:                     pricing.InstanceType{Name: "test", HourlyRate: 1, LinkMbps: 1},
		Hours:                        1,
		PerGB:                        pricing.MicroUSD(1e12), // $1M/GB: transfer dominates
		CapacityOverrideBytesPerHour: 90,
	}
	base := Config{Tau: 1000, MessageBytes: 1, Model: expensiveBW}

	noCost := base
	noCost.Opts = OptExpensiveTopicFirst | OptMostFreeVM
	withCost := base
	withCost.Opts = OptAll

	a1, err := CustomBinPackingContext(context.Background(), sel, noCost)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := CustomBinPackingContext(context.Background(), sel, withCost)
	if err != nil {
		t.Fatal(err)
	}
	if !(a2.NumVMs() > a1.NumVMs()) {
		t.Errorf("cost-based VMs = %d, without = %d; want more VMs when bandwidth is precious",
			a2.NumVMs(), a1.NumVMs())
	}
	if !(a2.TotalBytesPerHour() < a1.TotalBytesPerHour()) {
		t.Errorf("cost-based bytes = %d, without = %d; want less bandwidth",
			a2.TotalBytesPerHour(), a1.TotalBytesPerHour())
	}
	if !(a2.Cost(expensiveBW) < a1.Cost(expensiveBW)) {
		t.Errorf("cost-based cost = %v ≥ %v", a2.Cost(expensiveBW), a1.Cost(expensiveBW))
	}
	for _, pair := range []struct {
		alloc *Allocation
		cfg   Config
	}{{a1, noCost}, {a2, withCost}} {
		if err := VerifyAllocation(w, sel, pair.alloc, pair.cfg); err != nil {
			t.Errorf("VerifyAllocation: %v", err)
		}
	}
}

func TestCBPInfeasible(t *testing.T) {
	w := mustWorkload(t, []int64{100}, [][]workload.TopicID{{0}})
	sel := SelectAllPairs(w)
	cfg := configWith(1000, 150, CustomBinPackingContext, OptAll)
	if _, err := CustomBinPackingContext(context.Background(), sel, cfg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestEmptySelection(t *testing.T) {
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}})
	empty := &Selection{w: w, subOff: make([]int64, w.NumSubscribers()+1)}
	for name, pack := range map[string]packFunc{"ffbp": FFBinPackingContext, "cbp": CustomBinPackingContext} {
		cfg := configWith(10, 100, pack, OptAll)
		alloc, err := runStage2(context.Background(), empty, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alloc.NumVMs() != 0 {
			t.Errorf("%s: NumVMs = %d, want 0", name, alloc.NumVMs())
		}
	}
}

func TestOptFlagsString(t *testing.T) {
	tests := []struct {
		f    OptFlags
		want string
	}{
		{0, "group-only"},
		{OptExpensiveTopicFirst, "expensive-first"},
		{OptMostFreeVM, "most-free-vm"},
		{OptCostBased, "cost-based"},
		{OptAll, "expensive-first+most-free-vm+cost-based"},
	}
	for _, tc := range tests {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("OptFlags(%d).String() = %q, want %q", tc.f, got, tc.want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	tests := []struct {
		a, b, want int64
	}{
		{0, 5, 0}, {-3, 5, 0}, {1, 5, 1}, {5, 5, 1}, {6, 5, 2}, {10, 5, 2},
	}
	for _, tc := range tests {
		if got := ceilDiv(tc.a, tc.b); got != tc.want {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// allLadderConfigs enumerates the paper's optimization ladder (§IV-D); nil
// stages run GSP and CBP.
func allLadderConfigs(tau, capacity int64) []Config {
	return []Config{
		{Tau: tau, MessageBytes: 1, Model: testModel(capacity), Stage1: RandomSelectPairsContext, Stage2: FFBinPackingContext},
		{Tau: tau, MessageBytes: 1, Model: testModel(capacity), Stage2: FFBinPackingContext},
		{Tau: tau, MessageBytes: 1, Model: testModel(capacity)},
		{Tau: tau, MessageBytes: 1, Model: testModel(capacity), Opts: OptExpensiveTopicFirst},
		{Tau: tau, MessageBytes: 1, Model: testModel(capacity), Opts: OptExpensiveTopicFirst | OptMostFreeVM},
		{Tau: tau, MessageBytes: 1, Model: testModel(capacity), Opts: OptAll},
	}
}

func TestPropertyAllConfigurationsProduceValidAllocations(t *testing.T) {
	f := func(seed int64, tauRaw, capRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%500) + 1
		// Capacity must admit the largest topic: 2·maxRate·msg.
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		capacity := 2*maxRate + int64(capRaw%2000)
		for _, cfg := range allLadderConfigs(tau, capacity) {
			res, err := Solve(w, cfg)
			if err != nil {
				return false
			}
			if err := VerifyAllocation(w, res.Selection, res.Allocation, cfg); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLowerBoundHolds(t *testing.T) {
	f := func(seed int64, tauRaw, capRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%500) + 1
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		capacity := 2*maxRate + int64(capRaw%2000)
		for _, cfg := range allLadderConfigs(tau, capacity) {
			res, err := Solve(w, cfg)
			if err != nil {
				return false
			}
			lb, err := LowerBound(w, cfg)
			if err != nil {
				return false
			}
			if lb.Cost > res.Cost(cfg.Model) {
				return false
			}
			if lb.VMs > res.Allocation.NumVMs() {
				return false
			}
			if lb.OutBytesPerHour > res.Allocation.TotalBytesPerHour() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
