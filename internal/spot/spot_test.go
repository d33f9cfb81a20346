package spot_test

import (
	"context"
	"errors"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/tracegen"
)

func validMarket() *spot.Market {
	return &spot.Market{
		EpochMinutes: 60,
		NumAZs:       3,
		Types: []spot.TypePrices{{
			Base:        pricing.C3Large,
			Prices:      []pricing.MicroUSD{50_000, 60_000, 45_000},
			ReclaimProb: []float64{0.02, 0.10, 0.02},
		}},
		Storms: []spot.Storm{{Epoch: 2, AZ: 1}},
	}
}

func TestMarketValidate(t *testing.T) {
	if err := validMarket().Validate(); err != nil {
		t.Fatalf("valid market rejected: %v", err)
	}
	mutations := map[string]func(*spot.Market){
		"zero epoch minutes":  func(m *spot.Market) { m.EpochMinutes = 0 },
		"no zones":            func(m *spot.Market) { m.NumAZs = 0 },
		"no types":            func(m *spot.Market) { m.Types = nil },
		"spot base":           func(m *spot.Market) { m.Types[0].Base.Name = "c3.large:spot" },
		"duplicate base":      func(m *spot.Market) { m.Types = append(m.Types, m.Types[0]) },
		"zero price":          func(m *spot.Market) { m.Types[0].Prices[1] = 0 },
		"price above od":      func(m *spot.Market) { m.Types[0].Prices[1] = pricing.C3Large.HourlyRate + 1 },
		"prob series short":   func(m *spot.Market) { m.Types[0].ReclaimProb = m.Types[0].ReclaimProb[:2] },
		"prob out of range":   func(m *spot.Market) { m.Types[0].ReclaimProb[0] = 1.5 },
		"storm zone missing":  func(m *spot.Market) { m.Storms[0].AZ = 3 },
		"storm before start":  func(m *spot.Market) { m.Storms[0].Epoch = -1 },
		"empty price series":  func(m *spot.Market) { m.Types[0].Prices = nil },
		"zero on-demand rate": func(m *spot.Market) { m.Types[0].Base.HourlyRate = 0 },
	}
	for name, mutate := range mutations {
		m := validMarket()
		mutate(m)
		if err := m.Validate(); !errors.Is(err, spot.ErrInvalidMarket) {
			t.Errorf("%s: err = %v, want ErrInvalidMarket", name, err)
		}
	}
}

func TestMarketSeriesAccess(t *testing.T) {
	m := validMarket()
	if got := m.Epochs(); got != 3 {
		t.Fatalf("Epochs = %d", got)
	}
	// Last-value persistence past the series end.
	if p, ok := m.PriceAt("c3.large", 10); !ok || p != 45_000 {
		t.Fatalf("PriceAt(10) = %d, %v", p, ok)
	}
	if p := m.ReclaimProbAt("c3.large", 10); p != 0.02 {
		t.Fatalf("ReclaimProbAt(10) = %g", p)
	}
	if _, ok := m.PriceAt("m3.xlarge", 0); ok {
		t.Fatal("untraded type reported as traded")
	}
	if zs := m.StormZones(2); len(zs) != 1 || zs[0] != 1 {
		t.Fatalf("StormZones(2) = %v", zs)
	}
	if zs := m.StormZones(0); zs != nil {
		t.Fatalf("StormZones(0) = %v", zs)
	}
}

func TestFleetAtRiskAdjustment(t *testing.T) {
	m := validMarket()
	base, err := pricing.NewFleetWithCapacities([]pricing.InstanceType{pricing.C3Large}, []int64{1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1: price 60_000, p = 0.10, 60-minute epochs, 2h penalty →
	// 60_000 × (1 + 0.10·1·2) = 72_000.
	fleet, err := m.FleetAt(base, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Len() != 2 {
		t.Fatalf("decision fleet has %d types, want 2", fleet.Len())
	}
	i := fleet.IndexByName("c3.large:spot")
	if i < 0 {
		t.Fatal("no spot variant in decision fleet")
	}
	if got := fleet.Type(i).HourlyRate; got != 72_000 {
		t.Fatalf("risk-adjusted rate = %d, want 72000", got)
	}
	if got := fleet.Capacity(i); got != 1<<30 {
		t.Fatalf("spot capacity = %d, want base capacity", got)
	}
	// Billing fleet (zero penalty) carries the raw epoch price.
	bill, err := m.FleetAt(base, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := bill.IndexByName("c3.large:spot")
	if got := bill.Type(j).HourlyRate; got != 60_000 {
		t.Fatalf("billing rate = %d, want 60000", got)
	}
	// The on-demand base type passes through unchanged.
	if k := fleet.IndexByName("c3.large"); k < 0 || fleet.Type(k).HourlyRate != pricing.C3Large.HourlyRate {
		t.Fatal("base type mutated by FleetAt")
	}
}

// TestFleetAtKeepsRegion: every spot variant of a regional fleet deploys
// into its base type's region, so Stage 2 routes spot capacity and egress
// bills it where it really runs.
func TestFleetAtKeepsRegion(t *testing.T) {
	net := core.SyntheticTopology(3)
	base, err := core.RegionalFleet(pricing.CatalogFleet(), net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spot.GenerateMarket(base, spot.DefaultMarketConfig())
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := m.FleetAt(base, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	variants := 0
	for i := 0; i < fleet.Len(); i++ {
		it := fleet.Type(i)
		if !pricing.IsSpot(it.Name) {
			continue
		}
		variants++
		j := base.IndexByName(pricing.BaseName(it.Name))
		if j < 0 {
			t.Fatalf("variant %q has no base type", it.Name)
		}
		if want := base.Type(j).Region; it.Region != want {
			t.Fatalf("variant %q in region %q, base type in %q", it.Name, it.Region, want)
		}
	}
	if variants != base.Len() {
		t.Fatalf("%d spot variants for %d base types", variants, base.Len())
	}
}

func TestScheduleQuantization(t *testing.T) {
	m := validMarket()
	// Flat risk so rate drift tracks price drift exactly.
	m.Types[0].Prices = []pricing.MicroUSD{100_000, 102_000, 50_000}
	m.Types[0].ReclaimProb = []float64{0, 0, 0}
	base, err := pricing.NewFleetWithCapacities([]pricing.InstanceType{pricing.C3Large}, []int64{1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s, err := spot.NewSchedule(m, base)
	if err != nil {
		t.Fatal(err)
	}
	d0, b0, err := s.FleetAt(0)
	if err != nil {
		t.Fatal(err)
	}
	d1, _, err := s.FleetAt(1)
	if err != nil {
		t.Fatal(err)
	}
	// 2% drift stays under the 5% threshold: the decision fleet is sticky.
	if !d0.Equal(d1) {
		t.Fatal("2%% drift repriced the decision fleet")
	}
	// Billing is never quantized.
	if i := b0.IndexByName("c3.large:spot"); b0.Type(i).HourlyRate != 100_000 {
		t.Fatalf("epoch-0 billing rate = %d", b0.Type(i).HourlyRate)
	}
	d2, b2, err := s.FleetAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Equal(d2) {
		t.Fatal("50%% drift did not reprice the decision fleet")
	}
	if i := b2.IndexByName("c3.large:spot"); b2.Type(i).HourlyRate != 50_000 {
		t.Fatalf("epoch-2 billing rate = %d", b2.Type(i).HourlyRate)
	}
}

// chaosAlloc builds a minimal allocation: n VMs of the given instance,
// densely numbered — all FailureGroups reads are ID and Instance.Name.
func chaosAlloc(n int, it pricing.InstanceType) *core.Allocation {
	a := &core.Allocation{}
	for i := 0; i < n; i++ {
		a.VMs = append(a.VMs, &core.VM{ID: i, Instance: it})
	}
	return a
}

func TestChaosStormGroups(t *testing.T) {
	m := validMarket()
	m.Types[0].ReclaimProb = []float64{0, 0, 0} // storms only
	c, err := spot.NewChaos(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	spotType := pricing.InstanceType{Name: "c3.large:spot", HourlyRate: 50_000, LinkMbps: 64}

	// Calm epoch: no storm, zero probability.
	if g := c.FailureGroups(0, chaosAlloc(6, spotType)); g != nil {
		t.Fatalf("calm epoch produced groups %v", g)
	}
	// Storm at epoch 2 zone 1: with 3 zones, VMs 1 and 4 of 6 are struck —
	// one correlated group, IDs ascending.
	groups := c.FailureGroups(2, chaosAlloc(6, spotType))
	if len(groups) != 1 || len(groups[0]) != 2 || groups[0][0] != 1 || groups[0][1] != 4 {
		t.Fatalf("storm groups = %v, want [[1 4]]", groups)
	}
	// On-demand VMs are never reclaimed, even inside a storming zone.
	if g := c.FailureGroups(2, chaosAlloc(6, pricing.C3Large)); g != nil {
		t.Fatalf("on-demand VMs reclaimed: %v", g)
	}
}

func TestChaosDeterminism(t *testing.T) {
	m := validMarket()
	m.Types[0].ReclaimProb = []float64{0.5, 0.5, 0.5}
	run := func() [][][]int {
		c, err := spot.NewChaos(m, 42)
		if err != nil {
			t.Fatal(err)
		}
		spotType := pricing.InstanceType{Name: "c3.large:spot", HourlyRate: 50_000, LinkMbps: 64}
		var out [][][]int
		for e := 0; e < 3; e++ {
			out = append(out, c.FailureGroups(e, chaosAlloc(9, spotType)))
		}
		return out
	}
	a, b := run(), run()
	for e := range a {
		if len(a[e]) != len(b[e]) {
			t.Fatalf("epoch %d: %v vs %v", e, a[e], b[e])
		}
		for g := range a[e] {
			if len(a[e][g]) != len(b[e][g]) {
				t.Fatalf("epoch %d group %d diverges", e, g)
			}
			for k := range a[e][g] {
				if a[e][g][k] != b[e][g][k] {
					t.Fatalf("epoch %d: %v vs %v", e, a[e], b[e])
				}
			}
		}
	}
}

// TestPackRiskAwarePinsSingletons solves a random workload against a fleet
// with interruptible variants and checks Stage 2's spot guarantee:
// every topic with exactly one selected subscriber is served from
// on-demand capacity, the allocation verifies, and replicated topics are
// allowed (and expected, at a 3x discount) to land on spot VMs. Topics
// outnumber subscribers' interests enough that the selection holds
// singleton topics, and the test requires that it checked some.
func TestPackRiskAwarePinsSingletons(t *testing.T) {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 300, Subscribers: 600, MaxFollowings: 4, MaxRate: 50, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 40 * 50 * 200
	cfg := core.DefaultConfig(30, model)

	base, err := pricing.NewFleetWithCapacities(
		[]pricing.InstanceType{pricing.C3Large}, []int64{model.CapacityOverrideBytesPerHour})
	if err != nil {
		t.Fatal(err)
	}
	m := validMarket()
	fleet, err := m.FleetAt(base, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet = fleet

	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAllocation(w, res.Selection, res.Allocation, cfg); err != nil {
		t.Fatalf("risk-aware allocation fails verification: %v", err)
	}
	spotVMs, spotPairs, singletons := 0, 0, 0
	for _, vm := range res.Allocation.VMs {
		onSpot := pricing.IsSpot(vm.Instance.Name)
		if onSpot {
			spotVMs++
		}
		for _, p := range vm.Placements {
			if onSpot {
				spotPairs += len(p.Subs)
			}
			if deg := len(res.Selection.SelectedSubscribers(p.Topic)); deg == 1 {
				singletons++
				if onSpot {
					t.Fatalf("singleton topic %d placed on interruptible VM %d (%s)",
						p.Topic, vm.ID, vm.Instance.Name)
				}
			}
		}
	}
	if singletons == 0 {
		t.Fatal("the selection places no singleton topic; the pinning check ran on nothing")
	}
	if spotVMs == 0 || spotPairs == 0 {
		t.Fatal("no replicated pairs landed on spot capacity — discount unexploited")
	}
}

func TestTracegenSpotMarket(t *testing.T) {
	base, err := pricing.NewFleetWithCapacities(
		[]pricing.InstanceType{pricing.C3Large, pricing.C3XLarge}, []int64{1 << 30, 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spot.DefaultMarketConfig()
	m, err := spot.GenerateMarket(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("generated market invalid: %v", err)
	}
	if len(m.Types) != 2 || m.Epochs() != cfg.Epochs {
		t.Fatalf("market shape: %d types, %d epochs", len(m.Types), m.Epochs())
	}
	if len(m.Storms) != cfg.Storms {
		t.Fatalf("storms = %d, want %d", len(m.Storms), cfg.Storms)
	}
	for _, s := range m.Storms {
		if s.Epoch < cfg.Epochs/2 || s.Epoch >= cfg.Epochs {
			t.Fatalf("storm at epoch %d outside second half", s.Epoch)
		}
	}
	// Deterministic per seed.
	m2, err := spot.GenerateMarket(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Types {
		for e := range m.Types[i].Prices {
			if m.Types[i].Prices[e] != m2.Types[i].Prices[e] {
				t.Fatalf("type %d epoch %d: %d vs %d — generator not deterministic",
					i, e, m.Types[i].Prices[e], m2.Types[i].Prices[e])
			}
		}
	}
	// Mean discount sanity: average price should sit well below on-demand.
	var sum float64
	n := 0
	for _, tp := range m.Types {
		for _, p := range tp.Prices {
			sum += float64(p) / float64(tp.Base.HourlyRate)
			n++
		}
	}
	if mean := sum / float64(n); mean > 0.7 {
		t.Fatalf("mean spot/on-demand ratio %.2f — discount lost", mean)
	}
}
