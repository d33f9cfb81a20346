package satisfy

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

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

func TestRatio(t *testing.T) {
	tests := []struct {
		delivered, tauV int64
		want            float64
	}{
		{10, 10, 1},
		{5, 10, 0.5},
		{20, 10, 1}, // capped
		{0, 10, 0},
		{0, 0, 1}, // no demand = satisfied
	}
	for _, tc := range tests {
		if got := Ratio(tc.delivered, tc.tauV); got != tc.want {
			t.Errorf("Ratio(%d,%d) = %v, want %v", tc.delivered, tc.tauV, got, tc.want)
		}
	}
}

func TestMeasure(t *testing.T) {
	// v0 follows t0(10)+t1(30): τ=20 → τ_v=20. v1 follows t0: τ_v=10.
	w := mustWorkload(t, []int64{10, 30}, [][]workload.TopicID{{0, 1}, {0}})
	m := Measure(w, []int64{20, 5}, 20)
	if m.Total != 2 || m.Satisfied != 1 {
		t.Errorf("Satisfied/Total = %d/%d, want 1/2", m.Satisfied, m.Total)
	}
	// Ratios: v0 = 1, v1 = 0.5 → mean 0.75, min 0.5.
	if m.MeanRatio != 0.75 {
		t.Errorf("MeanRatio = %v, want 0.75", m.MeanRatio)
	}
	if m.MinRatio != 0.5 {
		t.Errorf("MinRatio = %v, want 0.5", m.MinRatio)
	}
	if m.Satisfied == m.Total {
		t.Error("every subscriber satisfied, want one short")
	}
}

func TestMeasureHandlesShortDeliveredSlice(t *testing.T) {
	w := mustWorkload(t, []int64{10}, [][]workload.TopicID{{0}, {0}})
	m := Measure(w, []int64{10}, 10) // second subscriber missing → 0
	if m.Satisfied != 1 {
		t.Errorf("Satisfied = %d, want 1", m.Satisfied)
	}
}

func TestMeasureEmptyWorkload(t *testing.T) {
	w := mustWorkload(t, nil, nil)
	m := Measure(w, nil, 10)
	if m.Total != 0 || m.Satisfied != 0 {
		t.Errorf("empty metrics = %+v", m)
	}
}

func TestMaximizeSatisfiedBudgetSweep(t *testing.T) {
	// Three subscribers with increasing satisfaction costs:
	// v0: t0 (rate 5) → cost 10; v1: t1 (10) → 20; v2: t2 (20) → 40.
	w := mustWorkload(t, []int64{5, 10, 20}, [][]workload.TopicID{{0}, {1}, {2}})
	const tau = 100 // τ > demand: everything needed
	tests := []struct {
		budget int64
		want   int
	}{
		{9, 0},
		{10, 1},
		{29, 1},
		{30, 2},
		{70, 3},
		{1000, 3},
	}
	for _, tc := range tests {
		res, err := MaximizeSatisfied(w, tau, tc.budget, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Satisfied); got != tc.want {
			t.Errorf("budget %d: satisfied %d, want %d", tc.budget, got, tc.want)
		}
		if res.UsedBytesPerHour > tc.budget {
			t.Errorf("budget %d: used %d exceeds budget", tc.budget, res.UsedBytesPerHour)
		}
	}
}

func TestMaximizeSatisfiedCheapestFirst(t *testing.T) {
	w := mustWorkload(t, []int64{5, 10, 20}, [][]workload.TopicID{{2}, {1}, {0}})
	// Costs: v0 follows t2 (rate 20) → 40; v1 → 20; v2 → 10. Budget 30
	// admits v2 then v1.
	res, err := MaximizeSatisfied(w, 100, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 2 || res.Satisfied[0] != 2 || res.Satisfied[1] != 1 {
		t.Errorf("Satisfied = %v, want [2 1]", res.Satisfied)
	}
	if len(res.Pairs) != 2 {
		t.Errorf("Pairs = %v, want two pairs", res.Pairs)
	}
}

func TestMaximizeSatisfiedRejectsBadInputs(t *testing.T) {
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}})
	if _, err := MaximizeSatisfied(w, 10, 0, 1); !errors.Is(err, ErrBadBudget) {
		t.Errorf("zero budget: err = %v", err)
	}
	if _, err := MaximizeSatisfied(w, 10, 100, 0); !errors.Is(err, ErrBadBudget) {
		t.Errorf("zero msg: err = %v", err)
	}
}

func TestMinBudgetToSatisfyAll(t *testing.T) {
	w := mustWorkload(t, []int64{5, 10}, [][]workload.TopicID{{0}, {1}})
	// GSP selects everything at τ=100: cost 2·(5+10)·msg.
	if got := MinBudgetToSatisfyAll(w, 100, 2); got != 60 {
		t.Errorf("MinBudget = %d, want 60", got)
	}
	// That budget indeed satisfies everyone.
	res, err := MaximizeSatisfied(w, 100, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 2 {
		t.Errorf("at min budget satisfied %d, want 2", len(res.Satisfied))
	}
}

func TestPropertyMaximizeMonotoneInBudget(t *testing.T) {
	f := func(seed int64, b1, b2 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        1 + rng.Intn(10),
			Subscribers:   1 + rng.Intn(20),
			MaxFollowings: 3,
			MaxRate:       50,
			Seed:          rng.Int63(),
		})
		if err != nil {
			return false
		}
		lo, hi := int64(b1)+1, int64(b2)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		rlo, err := MaximizeSatisfied(w, 30, lo, 1)
		if err != nil {
			return false
		}
		rhi, err := MaximizeSatisfied(w, 30, hi, 1)
		if err != nil {
			return false
		}
		return len(rlo.Satisfied) <= len(rhi.Satisfied)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMinBudgetSatisfiesAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        1 + rng.Intn(10),
			Subscribers:   1 + rng.Intn(20),
			MaxFollowings: 3,
			MaxRate:       50,
			Seed:          rng.Int63(),
		})
		if err != nil {
			return false
		}
		budget := MinBudgetToSatisfyAll(w, 40, 1)
		res, err := MaximizeSatisfied(w, 40, budget, 1)
		if err != nil {
			return false
		}
		return len(res.Satisfied) == w.NumSubscribers()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
