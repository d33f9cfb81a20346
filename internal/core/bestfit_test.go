package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pubsub-systems/mcss/internal/workload"
)

func TestBFDPacksTightest(t *testing.T) {
	// Items (2·r each with incoming): rates 30, 20, 10; BC = 70.
	// Decreasing order: 30 (VM0: 60/70), 20 → new VM1 (40); 10 → best fit
	// is VM1 (free 30) over... VM0 free 10 < 20 needed; VM1 free 30 ≥ 20 →
	// lands on VM1.
	w := mustWorkload(t, []int64{30, 20, 10}, [][]workload.TopicID{{0}, {1}, {2}})
	sel := SelectAllPairs(w)
	cfg := configWith(1000, 70, FFBinPackingContext, 0)
	alloc, err := BFDBinPacking(sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.NumVMs(); got != 2 {
		t.Fatalf("NumVMs = %d, want 2", got)
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

func TestBFDTieBreaksPreferTighterVM(t *testing.T) {
	// Two topics rate 10 each, one with 5 subs (fills VM to 60 of 100),
	// another with 2 subs (30). A third topic rate 5 with 1 sub (needs 10)
	// must land on the *fuller* VM... construct explicitly:
	w := mustWorkload(t, []int64{10, 10, 5}, [][]workload.TopicID{
		{0}, {0}, {0}, {0}, {0},
		{1}, {1},
		{2},
	})
	sel := SelectAllPairs(w)
	cfg := configWith(1000, 100, FFBinPackingContext, 0)
	alloc, err := BFDBinPacking(sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
		t.Fatalf("VerifyAllocation: %v", err)
	}
	// All pairs fit on one VM (5·10+10 + 2·10+10 + 5+5 = 100).
	if got := alloc.NumVMs(); got != 1 {
		t.Errorf("NumVMs = %d, want 1 (everything fits exactly)", got)
	}
}

func TestBFDInfeasible(t *testing.T) {
	w := mustWorkload(t, []int64{100}, [][]workload.TopicID{{0}})
	sel := SelectAllPairs(w)
	cfg := configWith(1000, 150, FFBinPackingContext, 0)
	if _, err := BFDBinPacking(sel, cfg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestPropertyBFDValidAndNoWorseVMsThanFF(t *testing.T) {
	// BFD is deterministically valid; it usually needs no more VMs than
	// first-fit in input order, but grouping effects through incoming
	// streams can tip either way — so only validity and the lower-bound
	// relation are asserted universally.
	f := func(seed int64, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%300) + 1
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		cfg := configWith(tau, 2*maxRate+1000, FFBinPackingContext, 0)
		sel := GreedySelectPairs(w, tau)
		alloc, err := BFDBinPacking(sel, cfg)
		if err != nil {
			return false
		}
		if err := VerifyAllocation(w, sel, alloc, cfg); err != nil {
			return false
		}
		lb, err := LowerBound(w, cfg)
		if err != nil {
			return false
		}
		return lb.Cost <= alloc.Cost(cfg.Model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBFDEmptySelection(t *testing.T) {
	w := mustWorkload(t, []int64{5}, [][]workload.TopicID{{0}})
	empty := &Selection{w: w, subOff: make([]int64, w.NumSubscribers()+1)}
	alloc, err := BFDBinPacking(empty, configWith(10, 100, FFBinPackingContext, 0))
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumVMs() != 0 {
		t.Errorf("NumVMs = %d, want 0", alloc.NumVMs())
	}
}
