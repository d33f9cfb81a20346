package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func selectionsEqual(a, b *Selection) bool {
	if a.NumPairs() != b.NumPairs() {
		return false
	}
	if len(a.subOff) != len(b.subOff) {
		return false
	}
	for i := range a.subOff {
		if a.subOff[i] != b.subOff[i] {
			return false
		}
	}
	for i := range a.subTopics {
		if a.subTopics[i] != b.subTopics[i] {
			return false
		}
	}
	return true
}

// parallelGSP runs GSP sharded over the given worker count, with
// Config.Parallelism's convention (negative means GOMAXPROCS).
func parallelGSP(t testing.TB, w *workload.Workload, tau int64, workers int) *Selection {
	t.Helper()
	sel, err := GreedySelectPairsContext(context.Background(), w, Config{Tau: tau, Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestParallelGSPMatchesSerialExactly(t *testing.T) {
	w, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.03))
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []int64{10, 100, 1000} {
		serial := GreedySelectPairs(w, tau)
		for _, workers := range []int{2, 3, 8, -1} {
			par := parallelGSP(t, w, tau, workers)
			if !selectionsEqual(serial, par) {
				t.Errorf("τ=%d workers=%d: parallel differs from serial", tau, workers)
			}
		}
	}
}

func TestParallelGSPSmallWorkloadFallsBack(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	sel := parallelGSP(t, w, 6, 8)
	if !sel.Satisfied(6) {
		t.Error("fallback selection unsatisfied")
	}
	if !selectionsEqual(GreedySelectPairs(w, 6), sel) {
		t.Error("fallback differs from serial")
	}
}

func TestParallelGSPWorkerEdgeCases(t *testing.T) {
	// More workers than subscribers, worker count 1, and a negative count
	// (GOMAXPROCS) must all produce the serial result.
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 10, Subscribers: 5, MaxFollowings: 3, MaxRate: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := GreedySelectPairs(w, 20)
	for _, workers := range []int{1, 5, 100, -1} {
		if !selectionsEqual(serial, parallelGSP(t, w, 20, workers)) {
			t.Errorf("workers=%d differs", workers)
		}
	}
}

func TestPropertyParallelGSPEquivalence(t *testing.T) {
	f := func(seed int64, tauRaw uint16, workersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%500) + 1
		workers := int(workersRaw%6) + 2
		return selectionsEqual(
			GreedySelectPairs(w, tau),
			parallelGSP(t, w, tau, workers),
		)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
