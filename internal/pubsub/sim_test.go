package pubsub

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

func solveFor(t *testing.T, w *workload.Workload, tau, capacity int64) (*core.Result, core.Config) {
	t.Helper()
	cfg := core.Config{
		Tau:          tau,
		MessageBytes: 1,
		Model:        testModel(capacity),
		Opts:         core.OptAll,
	}
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res, cfg
}

func TestSimulateDeliversExpectedCounts(t *testing.T) {
	// One topic at 10 events/hour, 2 subscribers, 1 hour → 10 events,
	// each delivered to both subscribers.
	w := mustWorkload(t, []int64{10}, [][]workload.TopicID{{0}, {0}})
	res, _ := solveFor(t, w, 100, 1000)
	sim, err := Simulate(w, res.Allocation, SimConfig{DurationHours: 1, MessageBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Events != 10 {
		t.Errorf("Events = %d, want 10", sim.Events)
	}
	for v, d := range sim.Delivered {
		if d != 10 {
			t.Errorf("subscriber %d delivered %d, want 10", v, d)
		}
	}
	if sim.Deliveries != 20 {
		t.Errorf("Deliveries = %d, want 20", sim.Deliveries)
	}
}

func TestSimulateTrafficMatchesAnalyticModel(t *testing.T) {
	// The simulated per-VM bytes over H hours must match the analytic
	// bw_b = (pairs + unique topics)·ev·msg within the integer-floor
	// error of the deterministic schedule.
	w := mustWorkload(t, []int64{60, 120}, [][]workload.TopicID{{0, 1}, {0}, {1}})
	res, cfg := solveFor(t, w, 1000, 100_000)
	const hours = 2.0
	sim, err := Simulate(w, res.Allocation, SimConfig{DurationHours: hours, MessageBytes: cfg.MessageBytes})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range res.Allocation.VMs {
		got := sim.PerVM[vm.ID].InBytes + sim.PerVM[vm.ID].OutBytes
		want := int64(float64(vm.BytesPerHour()) * hours)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		// Allow one event's worth of slack per placed topic.
		slack := int64(len(vm.Placements)+vm.NumPairs()) * cfg.MessageBytes
		if diff > slack {
			t.Errorf("vm %d traffic %d, analytic %d (±%d)", vm.ID, got, want, slack)
		}
	}
}

func TestSimulateSatisfactionOracle(t *testing.T) {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 20, Subscribers: 50, MaxFollowings: 4, MaxRate: 100, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var maxRate int64
	for tid := 0; tid < w.NumTopics(); tid++ {
		if r := w.Rate(workload.TopicID(tid)); r > maxRate {
			maxRate = r
		}
	}
	res, cfg := solveFor(t, w, 50, 4*maxRate)
	sim, err := Simulate(w, res.Allocation, SimConfig{DurationHours: 4, MessageBytes: cfg.MessageBytes})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSatisfaction(w, sim, cfg.Tau, 0.9); err != nil {
		t.Errorf("CheckSatisfaction: %v", err)
	}
}

func TestSimulateDeduplicatesMultiVMPairs(t *testing.T) {
	// Hand-build an allocation that serves the same pair from two VMs:
	// delivery counts once, bandwidth counts twice.
	w := mustWorkload(t, []int64{10}, [][]workload.TopicID{{0}})
	alloc := &core.Allocation{
		VMs: []*core.VM{
			{ID: 0, CapacityBytesPerHour: 100,
				Placements:      []core.TopicPlacement{{Topic: 0, Subs: []workload.SubID{0}}},
				OutBytesPerHour: 10, InBytesPerHour: 10},
			{ID: 1, CapacityBytesPerHour: 100,
				Placements:      []core.TopicPlacement{{Topic: 0, Subs: []workload.SubID{0}}},
				OutBytesPerHour: 10, InBytesPerHour: 10},
		},
		MessageBytes: 1,
	}
	sim, err := Simulate(w, alloc, SimConfig{DurationHours: 1, MessageBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered[0] != 10 {
		t.Errorf("Delivered = %d, want 10 (deduplicated)", sim.Delivered[0])
	}
	if got := sim.PerVM[0].OutBytes + sim.PerVM[1].OutBytes; got != 20 {
		t.Errorf("total OutBytes = %d, want 20 (both VMs pay)", got)
	}
}

func TestSimulateCrashDropsDeliveries(t *testing.T) {
	w := mustWorkload(t, []int64{10}, [][]workload.TopicID{{0}})
	res, cfg := solveFor(t, w, 100, 1000)
	sim, err := Simulate(w, res.Allocation, SimConfig{
		DurationHours: 1,
		MessageBytes:  cfg.MessageBytes,
		Crashes:       []Crash{{VM: 0, AtHour: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.DroppedDeliveries == 0 {
		t.Error("no deliveries dropped despite crash")
	}
	if sim.Delivered[0]+sim.DroppedDeliveries != 10 {
		t.Errorf("delivered %d + dropped %d != 10", sim.Delivered[0], sim.DroppedDeliveries)
	}
	if sim.PerVM[0].Dropped != sim.DroppedDeliveries {
		t.Errorf("per-VM dropped %d != total %d", sim.PerVM[0].Dropped, sim.DroppedDeliveries)
	}
}

func TestSimulateCrashValidation(t *testing.T) {
	w := mustWorkload(t, []int64{10}, [][]workload.TopicID{{0}})
	res, _ := solveFor(t, w, 100, 1000)
	_, err := Simulate(w, res.Allocation, SimConfig{
		DurationHours: 1, Crashes: []Crash{{VM: 99, AtHour: 0.5}},
	})
	if err == nil {
		t.Error("crash on unknown VM accepted")
	}
}

func TestSimulateLatencyModel(t *testing.T) {
	// Link speed equal to the offered load: queueing appears but stays
	// bounded; with no link model latency is zero.
	w := mustWorkload(t, []int64{100}, [][]workload.TopicID{{0}, {0}, {0}})
	res, cfg := solveFor(t, w, 1000, 100_000)

	noLink, err := Simulate(w, res.Allocation, SimConfig{DurationHours: 1, MessageBytes: cfg.MessageBytes})
	if err != nil {
		t.Fatal(err)
	}
	if noLink.MaxLatencyNanos != 0 {
		t.Errorf("latency without link model = %d, want 0", noLink.MaxLatencyNanos)
	}

	slowLink, err := Simulate(w, res.Allocation, SimConfig{
		DurationHours:    1,
		MessageBytes:     cfg.MessageBytes,
		LinkBytesPerHour: 600, // 3 pairs × 100 ev/h × 1 B = 300 B/h offered → plenty
	})
	if err != nil {
		t.Fatal(err)
	}
	if slowLink.MaxLatencyNanos == 0 {
		t.Error("latency with link model = 0, want > 0 (transmission time)")
	}
	if slowLink.MeanLatencyNanos() <= 0 {
		t.Error("mean latency should be positive")
	}
}

func TestSimulateEventCap(t *testing.T) {
	w := mustWorkload(t, []int64{1000}, [][]workload.TopicID{{0}})
	res, _ := solveFor(t, w, 10000, 100_000)
	_, err := Simulate(w, res.Allocation, SimConfig{DurationHours: 1, MaxEvents: 10})
	if !errors.Is(err, ErrEventCapExceeded) {
		t.Errorf("err = %v, want ErrEventCapExceeded", err)
	}
}

func TestSimulateRejectsBadDuration(t *testing.T) {
	w := mustWorkload(t, []int64{10}, [][]workload.TopicID{{0}})
	res, _ := solveFor(t, w, 100, 1000)
	if _, err := Simulate(w, res.Allocation, SimConfig{DurationHours: 0}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestExpectedEvents(t *testing.T) {
	tests := []struct {
		rate  int64
		hours float64
		want  int64
	}{
		{10, 1, 10},
		{1, 1, 1},
		{1, 0.4, 0}, // first event at 0.5h
		{60, 0.5, 30},
	}
	for _, tc := range tests {
		if got := ExpectedEvents(tc.rate, tc.hours); got != tc.want {
			t.Errorf("ExpectedEvents(%d, %v) = %d, want %d", tc.rate, tc.hours, got, tc.want)
		}
	}
}

func TestPropertySimulationMatchesExpectedEventCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        1 + rng.Intn(6),
			Subscribers:   1 + rng.Intn(8),
			MaxFollowings: 3,
			MaxRate:       50,
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
		cfg := core.Config{
			Tau: 30, MessageBytes: 1, Model: testModel(4 * maxRate),
			Opts: core.OptAll,
		}
		res, err := core.SolveContext(context.Background(), w, cfg)
		if err != nil {
			return false
		}
		sim, err := Simulate(w, res.Allocation, SimConfig{DurationHours: 1, MessageBytes: 1})
		if err != nil {
			return false
		}
		// Events = Σ over allocated topics of ExpectedEvents(rate, 1h).
		var want int64
		seen := map[workload.TopicID]bool{}
		for _, vm := range res.Allocation.VMs {
			for _, p := range vm.Placements {
				if !seen[p.Topic] {
					seen[p.Topic] = true
					want += ExpectedEvents(w.Rate(p.Topic), 1)
				}
			}
		}
		return sim.Events == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSimulatePoissonMatchesMeanRate(t *testing.T) {
	// Poisson arrivals with rate 600/h over 10h → ~6000 events; the law
	// of large numbers bounds the deviation well under 10%.
	w := mustWorkload(t, []int64{600}, [][]workload.TopicID{{0}})
	res, cfg := solveFor(t, w, 10000, 10_000_000)
	sim, err := Simulate(w, res.Allocation, SimConfig{
		DurationHours: 10,
		MessageBytes:  cfg.MessageBytes,
		Poisson:       true,
		PoissonSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(6000)
	if f := float64(sim.Events); f < want*0.9 || f > want*1.1 {
		t.Errorf("Poisson events = %d, want %v ±10%%", sim.Events, want)
	}
}

func TestSimulatePoissonReproducible(t *testing.T) {
	w := mustWorkload(t, []int64{100}, [][]workload.TopicID{{0}, {0}})
	res, cfg := solveFor(t, w, 1000, 10_000_000)
	run := func(seed int64) *SimResult {
		sim, err := Simulate(w, res.Allocation, SimConfig{
			DurationHours: 2, MessageBytes: cfg.MessageBytes,
			Poisson: true, PoissonSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	a, b := run(7), run(7)
	if a.Events != b.Events || a.Deliveries != b.Deliveries {
		t.Error("same seed produced different Poisson runs")
	}
	c := run(8)
	if a.Events == c.Events && a.TotalLatencyNanos == c.TotalLatencyNanos {
		t.Log("different seeds produced identical fingerprints (unlikely but not fatal)")
	}
}
