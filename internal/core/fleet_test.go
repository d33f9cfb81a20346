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

// testFleet builds a three-size fleet with capacities baseCap, 2·baseCap,
// 4·baseCap. Pricing is deliberately non-proportional: the medium size is
// slightly cheaper per byte of capacity and the large slightly more
// expensive, so the cost-per-byte-served choice has real work to do.
func testFleet(t *testing.T, baseCap int64) pricing.Fleet {
	t.Helper()
	f, err := pricing.NewFleet(
		pricing.InstanceType{Name: "t.small", HourlyRate: 100, LinkMbps: 1},
		pricing.InstanceType{Name: "t.medium", HourlyRate: 190, LinkMbps: 2},
		pricing.InstanceType{Name: "t.large", HourlyRate: 420, LinkMbps: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return f.WithBytesPerMbps(baseCap)
}

// fleetConfig is configWith plus a fleet.
func fleetConfig(tau int64, f pricing.Fleet, s2 packFunc, opts OptFlags) Config {
	cfg := configWith(tau, f.MaxCapacity(), s2, opts)
	cfg.Fleet = f
	return cfg
}

func TestPickDeployType(t *testing.T) {
	f := testFleet(t, 100) // caps 100/200/400 at rates 100/190/420
	// A long group amortizes the incoming slot best on the cheapest-per-
	// byte-served size: k = cap/rb − 1 → small serves 9, medium 19,
	// large 39 pairs at rb=10. Scores 100/9 > 190/19 > 420/39·… — medium
	// wins (10.0 vs 11.1 and 10.8).
	if got := pickDeployType(f, 10, 1000); f.Type(got).Name != "t.medium" {
		t.Errorf("long group deployed %s, want t.medium", f.Type(got).Name)
	}
	// A short tail of 3 pairs fits every size; all serve k=3, so the
	// cheapest hourly rate (smallest) wins.
	if got := pickDeployType(f, 10, 3); f.Type(got).Name != "t.small" {
		t.Errorf("tail deployed %s, want t.small", f.Type(got).Name)
	}
	// A hot topic whose rate exceeds half the small/medium caps leaves
	// only the large size able to host a pair (2·rb > cap elsewhere).
	if got := pickDeployType(f, 150, 5); f.Type(got).Name != "t.large" {
		t.Errorf("hot topic deployed %s, want t.large", f.Type(got).Name)
	}
	// No type can host a pair → -1.
	if got := pickDeployType(f, 300, 5); got != -1 {
		t.Errorf("infeasible rate returned %d, want -1", got)
	}
}

func TestCBPMixesInstanceSizes(t *testing.T) {
	// One hot topic with many subscribers (wants a big instance) plus
	// scattered tiny topics (want small ones).
	rates := []int64{40}
	interests := make([][]workload.TopicID, 0, 24)
	for i := 0; i < 18; i++ {
		interests = append(interests, []workload.TopicID{0})
	}
	for i := 0; i < 6; i++ {
		rates = append(rates, 3)
		interests = append(interests, []workload.TopicID{workload.TopicID(len(rates) - 1)})
	}
	w := mustWorkload(t, rates, interests)
	sel := SelectAllPairs(w)
	f := testFleet(t, 100)
	cfg := fleetConfig(10_000, f, CustomBinPackingContext, OptExpensiveTopicFirst)
	alloc, err := CustomBinPackingContext(context.Background(), sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Fatalf("VerifyAllocation: %v", err)
	}
	mix := alloc.InstanceMix()
	if len(mix) < 2 {
		t.Errorf("expected a mixed deployment, got %v", mix)
	}
	for _, vm := range alloc.VMs {
		if vm.CapacityBytesPerHour != f.CapacityOf(vm.Instance.Name) {
			t.Errorf("vm %d capacity %d inconsistent with fleet for %s",
				vm.ID, vm.CapacityBytesPerHour, vm.Instance.Name)
		}
	}
}

func TestSolveFleetInfeasibleOnlyWhenLargestTooSmall(t *testing.T) {
	w := mustWorkload(t, []int64{150}, [][]workload.TopicID{{0}})
	f := testFleet(t, 100) // max cap 400 ≥ 2·150
	res, err := Solve(w, fleetConfig(1000, f, CustomBinPackingContext, OptAll))
	if err != nil {
		t.Fatalf("feasible fleet solve failed: %v", err)
	}
	if got := res.Allocation.VMs[0].Instance.Name; got != "t.large" {
		t.Errorf("hot topic landed on %s, want t.large", got)
	}
	// Rate 250 needs 500 > max capacity: infeasible.
	w2 := mustWorkload(t, []int64{250}, [][]workload.TopicID{{0}})
	if _, err := Solve(w2, fleetConfig(1000, f, CustomBinPackingContext, OptAll)); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// bestHomogeneousCost solves the workload restricted to each single type of
// the fleet and returns the cheapest feasible cost; ok=false when no type
// is feasible.
func bestHomogeneousCost(t *testing.T, w *workload.Workload, f pricing.Fleet, cfg Config) (pricing.MicroUSD, bool) {
	t.Helper()
	var best pricing.MicroUSD
	found := false
	for i := 0; i < f.Len(); i++ {
		sub := cfg
		sub.Fleet = f.Single(i)
		res, err := Solve(w, sub)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("homogeneous solve (%s): %v", f.Type(i).Name, err)
		}
		if c := res.Cost(cfg.Model); !found || c < best {
			best, found = c, true
		}
	}
	return best, found
}

func TestPropertyHeteroNeverWorseThanBestHomogeneous(t *testing.T) {
	check := func(seed int64, tauRaw, capRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%500) + 1
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		// Base capacity sized so the smallest type may be infeasible but
		// the largest (4×) never is.
		base := maxRate/2 + 1 + int64(capRaw%1000)
		f := testFleet(t, base)
		cfg := fleetConfig(tau, f, CustomBinPackingContext, OptAll)
		res, err := Solve(w, cfg)
		if err != nil {
			return false
		}
		if err := VerifyAllocation(w, res.Selection, res.Allocation, cfg); err != nil {
			return false
		}
		lb, err := LowerBound(w, cfg)
		if err != nil || lb.Cost > res.Cost(cfg.Model) {
			return false
		}
		homo, ok := bestHomogeneousCost(t, w, f, cfg)
		if !ok {
			return true // nothing to compare against
		}
		return res.Cost(cfg.Model) <= homo
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVerifyAllocationMixedPerVMCapacities(t *testing.T) {
	// Topic 0 (rate 30) with one subscriber on a small VM; topic 1
	// (rate 100) with three subscribers exactly filling a large VM.
	w := mustWorkload(t, []int64{30, 100}, [][]workload.TopicID{
		{0}, {1}, {1}, {1},
	})
	sel := SelectAllPairs(w)
	f := testFleet(t, 100) // caps 100/200/400
	cfg := fleetConfig(1000, f, CustomBinPackingContext, OptAll)

	alloc := &Allocation{
		Fleet:        f,
		MessageBytes: 1,
		VMs: []*VM{
			{
				ID: 0, Instance: f.Type(0), CapacityBytesPerHour: 100,
				Placements:     []TopicPlacement{{Topic: 0, Subs: []workload.SubID{0}}},
				InBytesPerHour: 30, OutBytesPerHour: 30,
			},
			{
				ID: 1, Instance: f.Type(2), CapacityBytesPerHour: 400,
				Placements:     []TopicPlacement{{Topic: 1, Subs: []workload.SubID{1, 2, 3}}},
				InBytesPerHour: 100, OutBytesPerHour: 300,
			},
		},
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Fatalf("valid mixed allocation rejected: %v", err)
	}

	// The same placements with the big VM's type swapped to small must be
	// rejected: 400 bytes/h against a 100 bytes/h instance.
	alloc.VMs[1].Instance = f.Type(0)
	alloc.VMs[1].CapacityBytesPerHour = f.Capacity(0)
	if err := VerifyAllocation(w, sel, alloc, cfg); err == nil {
		t.Error("per-VM capacity violation passed verification")
	}
	alloc.VMs[1].Instance = f.Type(2)
	alloc.VMs[1].CapacityBytesPerHour = f.Capacity(2)

	// A recorded capacity that disagrees with the fleet's capacity for
	// the VM's type must be rejected even if bandwidth would fit.
	alloc.VMs[0].CapacityBytesPerHour = 250
	if err := VerifyAllocation(w, sel, alloc, cfg); err == nil {
		t.Error("fleet-inconsistent per-VM capacity passed verification")
	}
}

func TestLowerBoundOverFleet(t *testing.T) {
	// One subscriber needing 250 bytes/h across two topics. Fleet caps
	// 100/200/400 at hourly rates 100/190/420 (Hours=1, free transfer):
	// the VM-count bound is ⌈250/400⌉ = 1 VM at the cheapest rate (100),
	// but the fractional rental bound is 250 bytes at the fleet's best
	// 190/200 µ$-per-byte ratio = ⌊237.5⌋ = 237 — the binding bound.
	w := mustWorkload(t, []int64{50, 200}, [][]workload.TopicID{{0, 1}})
	f := testFleet(t, 100)
	cfg := Config{
		Tau:          1000,
		MessageBytes: 1,
		Model:        pricing.Model{Instance: f.Type(0), Hours: 1, PerGB: 0},
		Fleet:        f,
	}
	lb, err := LowerBound(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lb.OutBytesPerHour != 250 {
		t.Errorf("OutBytesPerHour = %d, want 250", lb.OutBytesPerHour)
	}
	if lb.VMs != 1 {
		t.Errorf("VMs = %d, want 1 (⌈250/400⌉)", lb.VMs)
	}
	if lb.Cost != 237 {
		t.Errorf("Cost = %d µ$, want 237 µ$ (fractional rental bound)", int64(lb.Cost))
	}
	res, err := Solve(w, Config{
		Tau: 1000, MessageBytes: 1, Model: cfg.Model, Fleet: f,
		Opts: OptAll,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The mixed solve places the hot topic (400 bytes/h with its incoming
	// stream) on the large size and the small topic on the small size:
	// 420 + 100 = 520 µ$, versus 840 for the only feasible homogeneous
	// fleet (2 × large).
	if got := res.Cost(cfg.Model); got != 520 {
		t.Errorf("mixed cost = %d µ$, want 520", int64(got))
	}
	if res.Cost(cfg.Model) < lb.Cost {
		t.Errorf("solution %v beat the lower bound %v", res.Cost(cfg.Model), lb.Cost)
	}
}

func TestAllocationCostSumsPerVMRentals(t *testing.T) {
	f := testFleet(t, 100)
	m := pricing.Model{Instance: f.Type(0), Hours: 2, PerGB: 0}
	a := &Allocation{
		Fleet:        f,
		MessageBytes: 1,
		VMs: []*VM{
			{Instance: f.Type(0), CapacityBytesPerHour: 100},
			{Instance: f.Type(2), CapacityBytesPerHour: 400},
		},
	}
	// 2 h × (100 + 420) = 1040 µ$.
	if got, want := a.Cost(m), pricing.MicroUSD(1040); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestFFBPFleetDeploysCheapestFittingType(t *testing.T) {
	// A single pair of rate 60 needs 120 bytes/h: too big for the small
	// type (cap 100), so FFBP must deploy the medium (cheapest fitting).
	w := mustWorkload(t, []int64{60}, [][]workload.TopicID{{0}})
	sel := SelectAllPairs(w)
	f := testFleet(t, 100)
	cfg := fleetConfig(1000, f, FFBinPackingContext, 0)
	alloc, err := FFBinPackingContext(context.Background(), sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.VMs[0].Instance.Name; got != "t.medium" {
		t.Errorf("deployed %s, want t.medium", got)
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestSelectionRateCacheMatchesRecomputation(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7, 11}, [][]workload.TopicID{{0, 1}, {0, 2}, {2}})
	sel := SelectAllPairs(w)
	want := []int64{12, 16, 11}
	for v, rate := range want {
		// First call builds the cache, second hits it.
		if got := sel.SelectedRate(workload.SubID(v)); got != rate {
			t.Errorf("SelectedRate(%d) = %d, want %d", v, got, rate)
		}
		if got := sel.SelectedRate(workload.SubID(v)); got != rate {
			t.Errorf("cached SelectedRate(%d) = %d, want %d", v, got, rate)
		}
	}
	if !sel.Satisfied(11) || sel.FirstUnsatisfied(11) != -1 {
		t.Error("satisfied selection misreported")
	}
	// A partial selection: subscriber 1 only gets topic 0 (rate 5) of its
	// τ_v = 12 demand.
	partial := &Selection{w: w, subOff: []int64{0, 2, 3, 4}, subTopics: []workload.TopicID{0, 1, 0, 2}}
	if got := partial.FirstUnsatisfied(12); got != 1 {
		t.Errorf("FirstUnsatisfied(12) = %d, want 1", got)
	}
	if partial.Satisfied(12) {
		t.Error("partial selection reported satisfied")
	}
}
