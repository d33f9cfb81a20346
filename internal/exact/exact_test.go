package exact

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

func mustWorkload(t *testing.T, rates []int64, interests [][]workload.TopicID) *workload.Workload {
	t.Helper()
	subOff := []int64{0}
	var subTopics []workload.TopicID
	for _, ts := range interests {
		subTopics = append(subTopics, ts...)
		subOff = append(subOff, int64(len(subTopics)))
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	return w
}

func TestExactTrivialInstance(t *testing.T) {
	// One topic (rate 5), one subscriber, τ=3 → must select the pair.
	// bw = 10 bytes/h on one VM.
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}})
	cfg := core.Config{Tau: 3, MessageBytes: 1, Model: testModel(100)}
	sol, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sol.VMs != 1 || sol.BytesPerHour != 10 || len(sol.Selected) != 1 {
		t.Errorf("solution = %+v, want 1 VM / 10 B/h / 1 pair", sol)
	}
	want := cfg.Model.TotalCost(1, cfg.Model.TransferBytes(10))
	if sol.Cost != want {
		t.Errorf("Cost = %v, want %v", sol.Cost, want)
	}
}

func TestExactDropsUnneededPairs(t *testing.T) {
	// Subscriber follows topics with rates 5 and 7; τ=6 → optimal selects
	// only the 7 (bw 14), not both (bw 24).
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}})
	cfg := core.Config{Tau: 6, MessageBytes: 1, Model: testModel(100)}
	sol, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 1 || sol.Selected[0].Topic != 1 {
		t.Errorf("Selected = %v, want just topic 1", sol.Selected)
	}
	if sol.BytesPerHour != 14 {
		t.Errorf("BytesPerHour = %d, want 14", sol.BytesPerHour)
	}
}

func TestExactSharesIncomingStream(t *testing.T) {
	// Two subscribers of one topic (rate 5), τ=5, BC=100: both pairs on
	// one VM pay the incoming stream once: bw = 5+5+5 = 15.
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}, {0}})
	cfg := core.Config{Tau: 5, MessageBytes: 1, Model: testModel(100)}
	sol, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sol.VMs != 1 || sol.BytesPerHour != 15 {
		t.Errorf("solution = %+v, want 1 VM / 15 B/h", sol)
	}
}

func TestExactSplitsWhenCapacityForces(t *testing.T) {
	// Same two-subscriber topic but BC=10: one pair per VM, each paying
	// incoming: bw = 2×10.
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}, {0}})
	cfg := core.Config{Tau: 5, MessageBytes: 1, Model: testModel(10)}
	sol, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sol.VMs != 2 || sol.BytesPerHour != 20 {
		t.Errorf("solution = %+v, want 2 VMs / 20 B/h", sol)
	}
}

func TestExactInfeasible(t *testing.T) {
	w := mustWorkload(t, []int64{50}, [][]workload.TopicID{{0}})
	cfg := core.Config{Tau: 5, MessageBytes: 1, Model: testModel(10)}
	if _, err := SolveContext(context.Background(), w, cfg); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestExactTooLarge(t *testing.T) {
	interests := make([][]workload.TopicID, MaxPairs+1)
	for i := range interests {
		interests[i] = []workload.TopicID{0}
	}
	w := mustWorkload(t, []int64{1}, interests)
	cfg := core.Config{Tau: 1, MessageBytes: 1, Model: testModel(100)}
	if _, err := SolveContext(context.Background(), w, cfg); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestExactRejectsBadConfig(t *testing.T) {
	w := mustWorkload(t, []int64{1}, [][]workload.TopicID{{0}})
	if _, err := SolveContext(context.Background(), w, core.Config{MessageBytes: 1, Model: testModel(10)}); err == nil {
		t.Error("Tau=0 accepted")
	}
	if _, err := SolveContext(context.Background(), w, core.Config{Tau: 1, MessageBytes: 1}); err == nil {
		t.Error("zero-capacity model accepted")
	}
}

func TestPartitionReductionYesInstances(t *testing.T) {
	yes := [][]int64{
		{1, 1},
		{2, 3, 5},
		{3, 3, 3, 3},
		{1, 2, 3},       // {1,2} vs {3}
		{4, 5, 6, 7, 8}, // sum 30: {7,8} vs {4,5,6}
	}
	for _, xs := range yes {
		w, cfg, budget, err := PartitionToDCSS(xs)
		if err != nil {
			t.Fatalf("%v: %v", xs, err)
		}
		ok, err := Decision(w, cfg, budget)
		if err != nil {
			t.Fatalf("%v: %v", xs, err)
		}
		if !ok {
			t.Errorf("partitionable %v: DCSS says no", xs)
		}
	}
}

func TestPartitionReductionNoInstances(t *testing.T) {
	no := [][]int64{
		{1, 2},          // sum odd
		{1, 2, 4},       // sum odd
		{1, 1, 1},       // sum odd
		{2, 2, 10},      // 10 > sum/2
		{1, 5, 5, 1, 3}, // sum 15 odd
	}
	for _, xs := range no {
		w, cfg, budget, err := PartitionToDCSS(xs)
		if err != nil {
			t.Fatalf("%v: %v", xs, err)
		}
		ok, err := Decision(w, cfg, budget)
		if err != nil {
			t.Fatalf("%v: %v", xs, err)
		}
		if ok {
			t.Errorf("non-partitionable %v: DCSS says yes", xs)
		}
	}
}

func TestPartitionReductionRejectsBadInput(t *testing.T) {
	if _, _, _, err := PartitionToDCSS(nil); err == nil {
		t.Error("empty instance accepted")
	}
	if _, _, _, err := PartitionToDCSS([]int64{3, -1}); err == nil {
		t.Error("negative value accepted")
	}
}

// bruteForcePartition answers the partition problem directly.
func bruteForcePartition(xs []int64) bool {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	if sum%2 != 0 {
		return false
	}
	target := sum / 2
	for m := 1; m < 1<<len(xs)-1; m++ {
		var s int64
		for i := range xs {
			if m&(1<<i) != 0 {
				s += xs[i]
			}
		}
		if s == target {
			return true
		}
	}
	return false
}

func TestPropertyPartitionReductionAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = 1 + rng.Int63n(12)
		}
		w, cfg, budget, err := PartitionToDCSS(xs)
		if err != nil {
			return false
		}
		got, err := Decision(w, cfg, budget)
		if err != nil {
			return false
		}
		return got == bruteForcePartition(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHeuristicNeverBeatsExact(t *testing.T) {
	f := func(seed int64, tauRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        1 + rng.Intn(4),
			Subscribers:   1 + rng.Intn(4),
			MaxFollowings: 2,
			MaxRate:       30,
			Seed:          rng.Int63(),
		})
		if err != nil || w.NumPairs() > MaxPairs {
			return true // skip oversized draws
		}
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		cfg := core.Config{
			Tau:          int64(tauRaw)%100 + 1,
			MessageBytes: 1,
			Model:        testModel(2*maxRate + 40),
			Opts:         core.OptAll,
		}
		opt, err := SolveContext(context.Background(), w, cfg)
		if err != nil {
			return false
		}
		res, err := core.SolveContext(context.Background(), w, cfg)
		if err != nil {
			return false
		}
		if res.Cost(cfg.Model) < opt.Cost {
			return false // heuristic beat the "optimal": DP bug
		}
		lb, err := core.LowerBound(w, cfg)
		if err != nil {
			return false
		}
		return lb.Cost <= opt.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestHeuristicQualityOnMicroInstances(t *testing.T) {
	// Record the worst heuristic/optimal ratio over a deterministic sweep
	// of micro instances; regression-guard it loosely.
	rng := rand.New(rand.NewSource(123))
	worst := 1.0
	for i := 0; i < 60; i++ {
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        1 + rng.Intn(4),
			Subscribers:   1 + rng.Intn(5),
			MaxFollowings: 2,
			MaxRate:       25,
			Seed:          rng.Int63(),
		})
		if err != nil || w.NumPairs() > MaxPairs {
			continue
		}
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		cfg := core.Config{
			Tau:          20,
			MessageBytes: 1,
			Model:        testModel(2*maxRate + 30),
			Opts:         core.OptAll,
		}
		opt, err := SolveContext(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.SolveContext(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := float64(res.Cost(cfg.Model)) / float64(opt.Cost); ratio > worst {
			worst = ratio
		}
	}
	t.Logf("worst heuristic/optimal ratio on micro instances: %.3f", worst)
	if worst > 2.0 {
		t.Errorf("worst ratio %.3f exceeds 2.0; heuristic regressed", worst)
	}
}

func TestExactBranchesOverInstanceChoices(t *testing.T) {
	// Two mandatory pairs: a hot topic (rate 4, bw 8 with its incoming
	// stream) and a cold one (rate 1, bw 2). Fleet: small (cap 2, 1 µ$/h)
	// and large (cap 8, 5 µ$/h), 1 h rental, free transfer. The two pairs
	// cannot share a VM (bw 10 > 8), so the optimum mixes: large for the
	// hot pair + small for the cold one = 6 µ$ — versus 10 µ$ when the
	// DP is restricted to the large type alone.
	small := pricing.InstanceType{Name: "x.small", HourlyRate: 1, LinkMbps: 1}
	large := pricing.InstanceType{Name: "x.large", HourlyRate: 5, LinkMbps: 4}
	fleet, err := pricing.NewFleet(small, large)
	if err != nil {
		t.Fatal(err)
	}
	fleet = fleet.WithBytesPerMbps(2) // caps 2 and 8
	w := mustWorkload(t, []int64{4, 1}, [][]workload.TopicID{{0}, {1}})
	m := pricing.Model{Instance: large, Hours: 1, PerGB: 0}

	mixed, err := SolveContext(context.Background(), w, core.Config{Tau: 100, MessageBytes: 1, Model: m, Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Cost != 6 || mixed.VMs != 2 {
		t.Errorf("mixed = %d µ$ / %d VMs, want 6 µ$ / 2 VMs", int64(mixed.Cost), mixed.VMs)
	}

	largeOnly, err := SolveContext(context.Background(), w, core.Config{Tau: 100, MessageBytes: 1, Model: m, Fleet: fleet.Single(1)})
	if err != nil {
		t.Fatal(err)
	}
	if largeOnly.Cost != 10 {
		t.Errorf("large-only = %d µ$, want 10", int64(largeOnly.Cost))
	}
	// The small type alone cannot host the hot pair at all.
	if _, err := SolveContext(context.Background(), w, core.Config{Tau: 100, MessageBytes: 1, Model: m, Fleet: fleet.Single(0)}); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("small-only err = %v, want ErrInfeasible", err)
	}
}

func TestPropertyHeuristicNeverBeatsExactOnFleet(t *testing.T) {
	small := pricing.InstanceType{Name: "y.small", HourlyRate: 100, LinkMbps: 1}
	medium := pricing.InstanceType{Name: "y.medium", HourlyRate: 190, LinkMbps: 2}
	large := pricing.InstanceType{Name: "y.large", HourlyRate: 420, LinkMbps: 4}
	f := func(seed int64, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        1 + rng.Intn(3),
			Subscribers:   1 + rng.Intn(4),
			MaxFollowings: 1 + rng.Intn(3),
			MaxRate:       1 + rng.Int63n(50),
			Seed:          rng.Int63(),
		})
		if err != nil || w.NumPairs() > MaxPairs {
			return true
		}
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		fleet, err := pricing.NewFleet(small, medium, large)
		if err != nil {
			return false
		}
		fleet = fleet.WithBytesPerMbps(maxRate/2 + 1 + rng.Int63n(100))
		tau := int64(tauRaw%100) + 1
		cfg := core.Config{
			Tau:          tau,
			MessageBytes: 1,
			Model:        pricing.Model{Instance: small, Hours: 1, PerGB: 1000},
			Fleet:        fleet,
			Opts:         core.OptAll,
		}
		opt, err := SolveContext(context.Background(), w, cfg)
		if errors.Is(err, core.ErrInfeasible) {
			return true
		}
		if err != nil {
			return false
		}
		heur, err := core.SolveContext(context.Background(), w, cfg)
		if err != nil {
			return false
		}
		return heur.Cost(cfg.Model) >= opt.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
