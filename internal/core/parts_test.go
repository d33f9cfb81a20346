package core_test

import (
	"context"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/tracegen"
)

// TestStage2RoutesAndPins solves with default stages on a 3-region
// topology whose regional fleet offers spot variants: Stage 2 must route
// every pair within the 60 ms ceiling (region-blind packing breaks it)
// and, inside each region, keep single-subscriber topics off spot VMs,
// while replicated pairs still ride the discount.
func TestStage2RoutesAndPins(t *testing.T) {
	net := core.SyntheticTopology(3)
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 40 * 50 * 200
	regional, err := core.RegionalFleet(model.SingleFleet(), net)
	if err != nil {
		t.Fatal(err)
	}
	market, err := spot.GenerateMarket(regional, spot.DefaultMarketConfig())
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := market.FleetAt(regional, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 300, Subscribers: 300, MaxFollowings: 4, MaxRate: 50, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tracegen.TagRegions(base, 3, 7)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig(30, model)
	cfg.Fleet = fleet
	cfg.Topology = net
	// With its broker in the publisher's region a pair's modeled RTT is
	// one matrix entry (at most 60 ms here), so every pair stays feasible.
	cfg.LatencySLOMillis = 60
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAllocation(w, res.Selection, res.Allocation, cfg); err != nil {
		t.Fatalf("allocation fails verification: %v", err)
	}
	rep, err := core.EvalLatency(net, w, res.Allocation, cfg.MessageBytes, cfg.LatencySLOMillis)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d pairs over the %d ms ceiling", rep.Violations, cfg.LatencySLOMillis)
	}
	spotPairs := 0
	regions := make(map[string]bool)
	for _, vm := range res.Allocation.VMs {
		regions[vm.Instance.Region] = true
		onSpot := pricing.IsSpot(vm.Instance.Name)
		for _, p := range vm.Placements {
			if onSpot {
				spotPairs += len(p.Subs)
			}
			if onSpot && len(res.Selection.SelectedSubscribers(p.Topic)) == 1 {
				t.Fatalf("single-subscriber topic %d on spot VM %d (%s)", p.Topic, vm.ID, vm.Instance.Name)
			}
		}
	}
	if spotPairs == 0 {
		t.Fatal("no pair on spot capacity")
	}
	if len(regions) < 2 {
		t.Fatalf("VMs in %d region(s), want at least 2", len(regions))
	}
}
