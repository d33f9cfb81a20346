package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(100, pricing.NewModel(pricing.C3Large))
	if cfg.Tau != 100 || cfg.MessageBytes != 200 || cfg.Opts != OptAll ||
		cfg.Stage1 != nil || cfg.Stage2 != nil || cfg.Solver != nil {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
}

func TestConfigNormalizeRejectsBadInputs(t *testing.T) {
	m := pricing.NewModel(pricing.C3Large)
	if _, err := SolveContext(context.Background(), &workload.Workload{}, Config{Tau: 0, Model: m}); err == nil {
		t.Error("Tau=0 accepted")
	}
	if _, err := SolveContext(context.Background(), &workload.Workload{}, Config{Tau: 5, MessageBytes: -1, Model: m}); err == nil {
		t.Error("negative MessageBytes accepted")
	}
	var noCapacity pricing.Model
	if _, err := SolveContext(context.Background(), &workload.Workload{}, Config{Tau: 5, Model: noCapacity}); err == nil {
		t.Error("zero-capacity model accepted")
	}
	// A latency ceiling bounds the topology's RTT model; without one it
	// would bind nothing.
	if _, err := SolveContext(context.Background(), &workload.Workload{}, Config{Tau: 5, Model: m, LatencySLOMillis: 50}); err == nil {
		t.Error("latency SLO without a topology accepted")
	}
}

func TestSolveReportsStageTimes(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	res, err := SolveContext(context.Background(), w, configWith(6, 100, CustomBinPackingContext, OptAll))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage1Time < 0 || res.Stage2Time < 0 {
		t.Error("negative stage times")
	}
	if res.Selection == nil || res.Allocation == nil {
		t.Error("missing selection or allocation")
	}
}

// solveLadder runs the paper's six-rung ladder and returns costs.
func solveLadder(t *testing.T, w *workload.Workload, tau, capacity int64) []pricing.MicroUSD {
	t.Helper()
	configs := allLadderConfigs(tau, capacity)
	costs := make([]pricing.MicroUSD, len(configs))
	for i, cfg := range configs {
		res, err := SolveContext(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("rung %d: %v", i, err)
		}
		if err := VerifyAllocation(w, res.Selection, res.Allocation, cfg); err != nil {
			t.Fatalf("rung %d: %v", i, err)
		}
		costs[i] = res.Cost(cfg.Model)
	}
	return costs
}

func TestSolveTwitterLadderShape(t *testing.T) {
	// The paper's headline comparison: on a Twitter-like trace the full
	// solution (GSP+CBP, all opts) must be substantially cheaper than the
	// naive baseline (RSP+FFBP) at low τ, and at least as good as plain
	// GSP+FFBP.
	w, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.04))
	if err != nil {
		t.Fatal(err)
	}
	// Capacity that forces multi-VM packing: ~1/20 of total selected load.
	var maxRate int64
	for tid := 0; tid < w.NumTopics(); tid++ {
		if r := w.Rate(workload.TopicID(tid)); r > maxRate {
			maxRate = r
		}
	}
	capacity := 4 * maxRate // in bytes/hour at MessageBytes=1

	costs := solveLadder(t, w, 10, capacity)
	naive, full := costs[0], costs[len(costs)-1]
	if full >= naive {
		t.Errorf("full solution %v not cheaper than naive %v", full, naive)
	}
	saving := 1 - float64(full)/float64(naive)
	if saving < 0.20 {
		t.Errorf("τ=10 saving = %.1f%%, want substantial (>20%%)", saving*100)
	}
	t.Logf("Twitter-like ladder costs: %v (saving %.1f%%)", costs, saving*100)
}

func TestSolveSavingsDecreaseWithTau(t *testing.T) {
	// §IV-C: as τ grows, a larger fraction of pairs is mandatory and the
	// optimization headroom shrinks.
	w, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.04))
	if err != nil {
		t.Fatal(err)
	}
	var maxRate int64
	for tid := 0; tid < w.NumTopics(); tid++ {
		if r := w.Rate(workload.TopicID(tid)); r > maxRate {
			maxRate = r
		}
	}
	capacity := 4 * maxRate

	saving := func(tau int64) float64 {
		costs := solveLadder(t, w, tau, capacity)
		return 1 - float64(costs[len(costs)-1])/float64(costs[0])
	}
	s10 := saving(10)
	s1000 := saving(1000)
	if s10 <= s1000 {
		t.Errorf("saving(τ=10)=%.1f%% not greater than saving(τ=1000)=%.1f%%", s10*100, s1000*100)
	}
}

func TestSolveNearLowerBoundOnSpotify(t *testing.T) {
	// §IV-F: the full solution should land within a modest factor of the
	// (non-tight) lower bound. The paper reports ~15% in many cases; the
	// bound ignores incoming bandwidth so we accept a looser band here.
	w, err := tracegen.Spotify(tracegen.DefaultSpotifyConfig().Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	var maxRate int64
	for tid := 0; tid < w.NumTopics(); tid++ {
		if r := w.Rate(workload.TopicID(tid)); r > maxRate {
			maxRate = r
		}
	}
	cfg := Config{
		Tau:          100,
		MessageBytes: 1,
		Model:        testModel(4 * maxRate),
		Opts:         OptAll,
	}
	res, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := LowerBound(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Cost(cfg.Model)) / float64(lb.Cost)
	if ratio < 1 {
		t.Fatalf("cost below lower bound: ratio %.3f", ratio)
	}
	if ratio > 2.0 {
		t.Errorf("cost/lower-bound = %.2f, want ≤ 2.0", ratio)
	}
	t.Logf("Spotify-like cost/LB ratio: %.3f", ratio)
}

func TestLowerBoundManual(t *testing.T) {
	// Subscriber 0: topics {0:5, 1:7}; τ=6 → τ_v=6, min rate 5 →
	// max(6,5)=6. Subscriber 1: topic {0:5}; τ_v=5, min 5 → 5.
	// Total 11 events/h × msg 1 = 11 bytes/h; BC=4 → ⌈11/4⌉ = 3 VMs.
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	cfg := configWith(6, 4, CustomBinPackingContext, 0)
	lb, err := LowerBound(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lb.OutBytesPerHour != 11 {
		t.Errorf("OutBytesPerHour = %d, want 11", lb.OutBytesPerHour)
	}
	if lb.VMs != 3 {
		t.Errorf("VMs = %d, want 3", lb.VMs)
	}
	wantCost := cfg.Model.TotalCost(3, cfg.Model.TransferBytes(11))
	if lb.Cost != wantCost {
		t.Errorf("Cost = %v, want %v", lb.Cost, wantCost)
	}
}

func TestLowerBoundMinRateClause(t *testing.T) {
	// When every topic of a subscriber overshoots τ, the bound must use
	// the smallest topic rate, not τ (Theorem A.1's max clause).
	w := mustWorkload(t, []int64{50, 80}, [][]workload.TopicID{{0, 1}})
	cfg := configWith(10, 1000, CustomBinPackingContext, 0)
	lb, err := LowerBound(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lb.OutBytesPerHour != 50 {
		t.Errorf("OutBytesPerHour = %d, want 50 (min topic rate)", lb.OutBytesPerHour)
	}
}

func TestLowerBoundRejectsBadConfig(t *testing.T) {
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}})
	if _, err := LowerBound(w, Config{}); err == nil {
		t.Error("LowerBound accepted zero config")
	}
}

func TestVerifyAllocationCatchesViolations(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	cfg := configWith(6, 100, CustomBinPackingContext, OptAll)
	res, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Tamper: bandwidth accounting.
	res.Allocation.VMs[0].OutBytesPerHour++
	if err := VerifyAllocation(w, res.Selection, res.Allocation, cfg); err == nil {
		t.Error("tampered accounting passed verification")
	}
	res.Allocation.VMs[0].OutBytesPerHour--

	// Tamper: drop a placed pair.
	vm := res.Allocation.VMs[0]
	stolen := vm.Placements[0].Subs[0]
	vm.Placements[0].Subs = vm.Placements[0].Subs[1:]
	rb := w.Rate(vm.Placements[0].Topic) * cfg.MessageBytes
	vm.OutBytesPerHour -= rb
	if err := VerifyAllocation(w, res.Selection, res.Allocation, cfg); err == nil {
		t.Error("missing pair passed verification")
	}
	vm.Placements[0].Subs = append([]workload.SubID{stolen}, vm.Placements[0].Subs...)
	vm.OutBytesPerHour += rb

	// Tamper: capacity violation — every VM claims a 1-byte/h cap below
	// its accounted bandwidth, with a config whose fleet matches.
	saved := make([]int64, len(res.Allocation.VMs))
	for i, v := range res.Allocation.VMs {
		saved[i] = v.CapacityBytesPerHour
		v.CapacityBytesPerHour = 1
	}
	small := cfg
	small.Model.CapacityOverrideBytesPerHour = 1
	if err := VerifyAllocation(w, res.Selection, res.Allocation, small); err == nil {
		t.Error("capacity violation passed verification")
	}
	for i, v := range res.Allocation.VMs {
		v.CapacityBytesPerHour = saved[i]
	}

	// Tamper: a VM whose recorded capacity disagrees with the fleet's
	// capacity for its instance type.
	res.Allocation.VMs[0].CapacityBytesPerHour += 7
	if err := VerifyAllocation(w, res.Selection, res.Allocation, cfg); err == nil {
		t.Error("fleet-inconsistent capacity passed verification")
	}
	res.Allocation.VMs[0].CapacityBytesPerHour -= 7
}

// TestVerifyAllocationRejectsOutOfRange: a placement naming a topic or a
// subscriber outside the workload is an error, not an index panic.
func TestVerifyAllocationRejectsOutOfRange(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	cfg := configWith(6, 100, CustomBinPackingContext, OptAll)
	cases := []struct {
		name, want string
		edit       func(vm *VM)
	}{
		{"topic past the last", fmt.Sprintf("topic %d outside the workload", w.NumTopics()+5), func(vm *VM) {
			vm.Placements = append(vm.Placements, TopicPlacement{Topic: workload.TopicID(w.NumTopics() + 5), Subs: []workload.SubID{0}})
		}},
		{"subscriber past the last", fmt.Sprintf("subscriber %d outside the workload", w.NumSubscribers()+3), func(vm *VM) {
			vm.Placements[0].Subs[0] = workload.SubID(w.NumSubscribers() + 3)
		}},
		{"negative subscriber", "subscriber -2 outside the workload", func(vm *VM) {
			vm.Placements[0].Subs[0] = -2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveContext(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(res.Allocation.VMs[0])
			err = VerifyAllocation(w, res.Selection, res.Allocation, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

// TestVerifyRejectsRepeatsAndNonSubscriptions: both verifiers enforce one
// rule set, so VerifyServes refuses a pair placed twice, on two VMs or in
// one placement, and VerifyAllocation a placed pair that is not a
// subscription even when the selection lists it. Accounting is repaired
// in each case, so nothing else fails first.
func TestVerifyRejectsRepeatsAndNonSubscriptions(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	cfg := configWith(6, 100, CustomBinPackingContext, OptAll)
	cases := []struct {
		name, want string
		edit       func(c *verifyCase)
		verify     func(c verifyCase) error
	}{
		{"serves: pair on two vms", "pair (t=0,v=1) placed 2 times, want 1", func(c *verifyCase) {
			vm := c.alloc.VMs[0]
			c.alloc.VMs = append(c.alloc.VMs, &VM{ID: 1, Instance: vm.Instance, CapacityBytesPerHour: vm.CapacityBytesPerHour})
			place(c.alloc.VMs[1], 0, 1)
		}, func(c verifyCase) error { return VerifyServes(c.w, c.alloc, c.cfg) }},
		{"serves: subscriber twice in a placement", "subscriber 1 listed twice for topic 0", func(c *verifyCase) {
			place(c.alloc.VMs[0], 0, 1)
		}, func(c verifyCase) error { return VerifyServes(c.w, c.alloc, c.cfg) }},
		{"exact: selected pair not a subscription", "pair (t=1,v=1) is not a subscription", func(c *verifyCase) {
			place(c.alloc.VMs[0], 1, 1)
			c.sel = selectionListing(c.sel, workload.Pair{Topic: 1, Sub: 1})
		}, func(c verifyCase) error { return VerifyAllocation(c.w, c.sel, c.alloc, c.cfg) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveContext(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := verifyCase{w: w, sel: res.Selection, alloc: res.Allocation, cfg: cfg}
			if err := tc.verify(c); err != nil {
				t.Fatalf("solved allocation fails: %v", err)
			}
			tc.edit(&c)
			c.reaccount()
			if err := tc.verify(c); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

func TestVMAccessors(t *testing.T) {
	vm := &VM{
		Placements: []TopicPlacement{
			{Topic: 0, Subs: []workload.SubID{1, 2}},
			{Topic: 1, Subs: []workload.SubID{3}},
		},
		OutBytesPerHour: 30,
		InBytesPerHour:  12,
	}
	if got := vm.BytesPerHour(); got != 42 {
		t.Errorf("BytesPerHour = %d, want 42", got)
	}
	if got := vm.NumPairs(); got != 3 {
		t.Errorf("NumPairs = %d, want 3", got)
	}
}

func TestAllocationCostUsesModel(t *testing.T) {
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}})
	cfg := configWith(10, 100, CustomBinPackingContext, OptAll)
	res, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.Model
	want := m.TotalCost(res.Allocation.NumVMs(), res.Allocation.TransferBytes(m))
	if got := res.Cost(m); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}
