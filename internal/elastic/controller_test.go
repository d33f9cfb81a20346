package elastic

import (
	"context"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/pubsub"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// testTimeline builds a small deterministic diurnal timeline plus the
// solver config calibrated against its envelope, mirroring the diurnal
// experiment's setup at test size.
func testTimeline(t testing.TB, epochs int, epochMinutes int64) (*timeline.Timeline, core.Config) {
	t.Helper()
	base, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 60, Subscribers: 300, MaxFollowings: 5, MaxRate: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mod := tracegen.DefaultDiurnalConfig()
	mod.Epochs = epochs
	mod.EpochMinutes = epochMinutes
	mod.FlashEpoch, mod.FlashTopics, mod.FlashFactor = epochs/3, 2, 2.5
	tl, err := tracegen.Diurnal(base, mod)
	if err != nil {
		t.Fatal(err)
	}
	env, err := tl.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	sel := core.GreedySelectPairs(env, 100)
	bpm := sel.OutgoingRate() * 200 / 10 / pricing.C3Large.LinkMbps // ~10 c3.large at τ=100
	fleet := pricing.CatalogFleet().WithBytesPerMbps(bpm)
	cfg := core.Config{
		Tau:          100,
		MessageBytes: 200,
		Model:        pricing.NewModel(pricing.C3Large),
		Fleet:        fleet,
		Opts:         core.OptAll,
	}
	return tl, cfg
}

// assertEpochSatisfied checks the controller's core postcondition directly:
// the epoch's placements deliver at least τ_v = min(τ, demand) to every
// subscriber of the epoch snapshot, within each VM's true capacity.
func assertEpochSatisfied(t *testing.T, e int, w *workload.Workload, alloc *core.Allocation, cfg core.Config, trueFleet pricing.Fleet) {
	t.Helper()
	delivered := make([]int64, w.NumSubscribers())
	for _, vm := range alloc.VMs {
		var bw int64
		for _, p := range vm.Placements {
			rb := w.Rate(p.Topic) * cfg.MessageBytes
			bw += rb + rb*int64(len(p.Subs))
			for _, v := range p.Subs {
				delivered[v] += w.Rate(p.Topic)
			}
		}
		if c := trueCapacity(vm, trueFleet); bw > c {
			t.Errorf("epoch %d vm %d (%s): bandwidth %d exceeds true capacity %d",
				e, vm.ID, vm.Instance.Name, bw, c)
		}
	}
	for v := 0; v < w.NumSubscribers(); v++ {
		if tauV := w.TauV(workload.SubID(v), cfg.Tau); delivered[v] < tauV {
			t.Errorf("epoch %d subscriber %d delivered %d events/h, needs %d", e, v, delivered[v], tauV)
		}
	}
}

func TestControllerEveryEpochSatisfied(t *testing.T) {
	tl, cfg := testTimeline(t, 12, 60)
	fleet := cfg.EffectiveFleet()
	for _, policy := range []Policy{OraclePolicy(), DefaultPolicy()} {
		rep, err := NewController(cfg, policy).Run(context.Background(), tl)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Allocations) != tl.NumEpochs() || len(rep.Epochs) != tl.NumEpochs() {
			t.Fatalf("%s: report covers %d/%d epochs, want %d",
				rep.Strategy, len(rep.Allocations), len(rep.Epochs), tl.NumEpochs())
		}
		for e, alloc := range rep.Allocations {
			assertEpochSatisfied(t, e, tl.Epochs[e], alloc, cfg, fleet)
		}
	}
}

// TestPropertyEveryEpochSatisfiedUnderReplay is the acceptance property:
// replaying each epoch's allocation through the discrete-event simulator
// delivers every subscriber its threshold (within the simulator's floor
// effects).
func TestPropertyEveryEpochSatisfiedUnderReplay(t *testing.T) {
	tl, cfg := testTimeline(t, 8, 60)
	rep, err := NewController(cfg, DefaultPolicy()).Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}
	for e, alloc := range rep.Allocations {
		w := tl.Epochs[e]
		sim, err := pubsub.Simulate(w, alloc, pubsub.SimConfig{
			DurationHours: tl.EpochHours(),
			MessageBytes:  cfg.MessageBytes,
			MaxEvents:     5_000_000,
		})
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if err := pubsub.CheckSatisfaction(w, sim, cfg.Tau, 0.5); err != nil {
			t.Errorf("epoch %d replay: %v", e, err)
		}
	}
}

func TestControllerCostOrdering(t *testing.T) {
	tl, cfg := testTimeline(t, 24, 60)
	oracle, err := NewController(cfg, OraclePolicy()).Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}
	hyst, err := NewController(cfg, DefaultPolicy()).Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}
	static, err := StaticPeakReport(tl, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if hyst.TotalCost() >= static.TotalCost() {
		t.Errorf("hysteresis %v not strictly cheaper than static peak %v",
			hyst.TotalCost(), static.TotalCost())
	}
	if oracle.TotalCost() > static.TotalCost() {
		t.Errorf("oracle %v costs more than static peak %v", oracle.TotalCost(), static.TotalCost())
	}
	if float64(hyst.TotalCost()) > 2.5*float64(oracle.TotalCost()) {
		t.Errorf("hysteresis %v more than 2.5× the oracle %v", hyst.TotalCost(), oracle.TotalCost())
	}
	// What the gap buys: the hysteresis controller re-homes fewer pairs.
	if hyst.TotalMoved() >= oracle.TotalMoved() {
		t.Errorf("hysteresis moved %d pairs, oracle moved %d — hysteresis must churn less",
			hyst.TotalMoved(), oracle.TotalMoved())
	}
}

// A kept epoch leaves every pair where it was: the hysteresis controller
// reports 0 moved pairs for it, whatever the fresh candidate would have
// moved, and the kept placements still serve the epoch.
func TestControllerKeptEpochMovesNoPairs(t *testing.T) {
	tl, cfg := testTimeline(t, 12, 60)
	rep, err := NewController(cfg, DefaultPolicy()).Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, ep := range rep.Epochs[1:] {
		if ep.Adopted {
			continue
		}
		kept++
		if ep.PairsMoved != 0 {
			t.Errorf("epoch %d kept placements but reports %d moved pairs", ep.Epoch, ep.PairsMoved)
		}
	}
	if kept == 0 {
		t.Fatal("the default policy kept no epoch")
	}
	fleet := cfg.EffectiveFleet()
	for e, alloc := range rep.Allocations {
		assertEpochSatisfied(t, e, tl.Epochs[e], alloc, cfg, fleet)
	}
}

func TestStaticPeakHoldsPerTypeMax(t *testing.T) {
	tl, cfg := testTimeline(t, 10, 60)
	oracle, err := NewController(cfg, OraclePolicy()).Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}
	static, err := StaticPeakReport(tl, oracle)
	if err != nil {
		t.Fatal(err)
	}
	peak := make(map[string]int)
	for _, ep := range oracle.Epochs {
		for name, n := range ep.ActiveMix {
			if n > peak[name] {
				peak[name] = n
			}
		}
	}
	want := 0
	for _, n := range peak {
		want += n
	}
	for _, ep := range static.Epochs {
		if ep.BilledVMs != want {
			t.Errorf("epoch %d bills %d VMs, want the per-type peak %d", ep.Epoch, ep.BilledVMs, want)
		}
	}
	// Static rental must price the peak fleet for the whole horizon.
	horizonHours := (tl.HorizonMinutes() + 59) / 60
	var wantRental pricing.MicroUSD
	for name, n := range peak {
		i := oracle.Fleet.IndexByName(name)
		wantRental = wantRental.Add(oracle.Fleet.Type(i).HourlyRate.Mul(int64(n) * horizonHours))
	}
	if got := static.RentalCost(); got != wantRental {
		t.Errorf("static rental = %v, want %v", got, wantRental)
	}
}

func TestKeepWithTopUpFallingRates(t *testing.T) {
	tl, cfg := testTimeline(t, 2, 60)
	fleet := cfg.EffectiveFleet()
	res, err := core.SolveContext(context.Background(), tl.Epochs[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Halve every rate: satisfaction thresholds τ_v fall less than the
	// selection's delivery (τ caps them), so a top-up is usually needed.
	rates := make([]int64, tl.Epochs[0].NumTopics())
	for i, r := range tl.Epochs[0].Rates() {
		rates[i] = (r + 1) / 2
	}
	sub := tl.Epochs[0]
	subOff := make([]int64, 1, sub.NumSubscribers()+1)
	var subTopics []workload.TopicID
	for v := 0; v < sub.NumSubscribers(); v++ {
		subTopics = append(subTopics, sub.Topics(workload.SubID(v))...)
		subOff = append(subOff, int64(len(subTopics)))
	}
	halved, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	kept, added, ok := keepWithTopUp(res.Allocation, halved, cfg, fleet, fleet)
	if !ok {
		t.Fatal("keepWithTopUp failed on falling rates")
	}
	if added == 0 {
		t.Log("no top-up needed (selection had slack); still validating satisfaction")
	}
	assertEpochSatisfied(t, 0, halved, kept, cfg, fleet)
	// The previous allocation must be untouched (copy-on-write).
	if err := core.VerifyAllocation(tl.Epochs[0], res.Selection, res.Allocation, cfg); err != nil {
		t.Errorf("top-up mutated the previous allocation: %v", err)
	}
}

func TestKeepWithTopUpRejectsCapacityOvershoot(t *testing.T) {
	tl, cfg := testTimeline(t, 2, 60)
	fleet := cfg.EffectiveFleet()
	res, err := core.SolveContext(context.Background(), tl.Epochs[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rates way past any headroom must read as a scale-up.
	rates := make([]int64, tl.Epochs[0].NumTopics())
	for i, r := range tl.Epochs[0].Rates() {
		rates[i] = r * 10
	}
	sub := tl.Epochs[0]
	subOff := make([]int64, 1, sub.NumSubscribers()+1)
	var subTopics []workload.TopicID
	for v := 0; v < sub.NumSubscribers(); v++ {
		subTopics = append(subTopics, sub.Topics(workload.SubID(v))...)
		subOff = append(subOff, int64(len(subTopics)))
	}
	spiked, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := keepWithTopUp(res.Allocation, spiked, cfg, fleet, fleet); ok {
		t.Error("keepWithTopUp accepted a 10× rate spike that overflows every VM")
	}
}

// TestControllerIncrementalModeEveryEpochSatisfied runs the controller with
// the incremental re-solve path enabled and holds it to the same
// postcondition as the full-preview path: every epoch satisfied within true
// capacity. The incremental path may not cost more than a modest factor
// over the standard hysteresis controller.
func TestControllerIncrementalModeEveryEpochSatisfied(t *testing.T) {
	tl, cfg := testTimeline(t, 12, 60)
	fleet := cfg.EffectiveFleet()

	pol := DefaultPolicy()
	pol.Incremental = true
	rep, err := NewController(cfg, pol).Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Allocations) != tl.NumEpochs() {
		t.Fatalf("report covers %d epochs, want %d", len(rep.Allocations), tl.NumEpochs())
	}
	for e, alloc := range rep.Allocations {
		assertEpochSatisfied(t, e, tl.Epochs[e], alloc, cfg, fleet)
	}

	std, err := NewController(cfg, DefaultPolicy()).Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rep.TotalCost()) > 1.25*float64(std.TotalCost()) {
		t.Errorf("incremental mode cost %v more than 1.25× the standard controller %v",
			rep.TotalCost(), std.TotalCost())
	}
}

// TestControllerChaosWalk runs the full spot pipeline at test scale: a
// price schedule over the catalog fleet (whose spot variants make Stage 2
// pin singleton topics on-demand), and a chaos injector drawing reclamations each epoch. Postconditions: every
// epoch's (post-repair) allocation still serves the epoch snapshot, every
// reclamation is billed, and the spot run undercuts the all-on-demand
// hysteresis baseline on realized cost.
func TestControllerChaosWalk(t *testing.T) {
	tl, cfg := testTimeline(t, 10, 60)
	base := cfg.EffectiveFleet()

	mcfg := spot.DefaultMarketConfig()
	mcfg.Epochs = tl.NumEpochs()
	mcfg.EpochMinutes = tl.EpochMinutes
	mcfg.BaseReclaimProb = 0.08 // hot market: make reclamations certain at test size
	mcfg.Seed = 11
	market, err := spot.GenerateMarket(base, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	ctl := NewController(cfg, DefaultPolicy())
	if err := ctl.SetSpotMarket(market, 23); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}

	// Zero Verify failures after every chaos epoch: the post-repair
	// allocation serves every subscriber's threshold within true capacity
	// (the run's final decision fleet carries the un-derated bounds for
	// the spot variants).
	verifyCfg := cfg
	verifyCfg.Fleet = rep.Fleet
	for e, alloc := range rep.Allocations {
		if err := core.VerifyServes(tl.Epochs[e], alloc, verifyCfg); err != nil {
			t.Errorf("epoch %d fails verification after chaos: %v", e, err)
		}
	}

	var reclaimed, repairedPairs int64
	repriced := 0
	for _, ep := range rep.Epochs {
		reclaimed += int64(ep.ReclaimedVMs)
		repairedPairs += ep.RepairedPairs
		if ep.Repriced {
			repriced++
		}
		if ep.ReclaimedVMs > 0 && ep.RepairedPairs == 0 && ep.LostPairMinutes > 0 {
			t.Errorf("epoch %d reclaimed %d VMs carrying pairs but repaired none",
				ep.Epoch, ep.ReclaimedVMs)
		}
	}
	if repriced == 0 {
		t.Error("no price epoch over a volatile 10-epoch market")
	}
	if reclaimed == 0 {
		t.Skip("no reclamations drawn at this seed — raise BaseReclaimProb")
	}
	// Every reclamation hit the ledger (satellite 1's billing path).
	if got := rep.Ledger.ReclaimedVMs(); got != reclaimed {
		t.Errorf("ledger billed %d reclamations, epochs report %d", got, reclaimed)
	}

	// Realized savings: the same timeline on all-on-demand hysteresis.
	baseRep, err := NewController(cfg, DefaultPolicy()).Run(context.Background(), tl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCost() >= baseRep.TotalCost() {
		t.Errorf("spot portfolio %v not cheaper than all-on-demand %v despite %d reclamations",
			rep.TotalCost(), baseRep.TotalCost(), reclaimed)
	}
}
