package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// The heterogeneous portfolio reduces its members in a fixed order, so
// every worker count — serial included — must produce byte-identical
// winners.
func TestPortfolioParallelismDeterminism(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(4200 + seed))
		w := randomCoreWorkload(rng)
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		cfg := Config{
			Tau:          1 + rng.Int63n(300),
			MessageBytes: 1,
			Model:        diffModel(rng, 2*maxRate+1),
			Fleet:        randomDiffFleet(t, rng, maxRate),
			Stage2:       Stage2Custom,
			Opts:         OptAll,
		}
		sel := GreedySelectPairs(w, cfg.Tau)

		serial := cfg
		serial.Parallelism = 1
		want, werr := PackSelection(ctx, sel, serial)
		for _, par := range []int{-1, 0, 2, 8} {
			pcfg := cfg
			pcfg.Parallelism = par
			got, gerr := PackSelection(ctx, sel, pcfg)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("seed %d parallelism %d: err %v, serial err %v", seed, par, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if err := allocationsEqual(want, got); err != nil {
				t.Fatalf("seed %d: parallelism %d differs from serial: %v", seed, par, err)
			}
			if wc, gc := want.Cost(cfg.Model), got.Cost(cfg.Model); wc != gc {
				t.Fatalf("seed %d: parallelism %d cost %v != serial %v", seed, par, gc, wc)
			}
		}
	}
}

// A selection is shared read-only by the concurrent portfolio members,
// each of which reads its lazily built views: the first readers of a fresh
// selection must not race. The serial determinism test above cannot show
// this — its serial run builds the views before any parallel one — so
// every pack here starts from a selection nothing has read yet. Run under
// -race; not skipped under -short.
func TestSelectionLazyViewsConcurrentReaders(t *testing.T) {
	ctx := context.Background()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 60, Subscribers: 400, MaxFollowings: 6, MaxRate: 50, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tau: 40, MessageBytes: 1, Model: testModel(4000), Stage2: Stage2Custom, Opts: OptAll}
	cfg.Fleet = testFleet(t, cfg.Model.CapacityBytesPerHour())
	want, err := PackSelection(ctx, GreedySelectPairs(w, cfg.Tau), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	for i := 0; i < 4; i++ {
		got, err := PackSelection(ctx, GreedySelectPairs(w, cfg.Tau), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := allocationsEqual(want, got); err != nil {
			t.Fatalf("run %d: parallel pack of a fresh selection differs from serial: %v", i, err)
		}
	}

	// Both views, read first by concurrent goroutines.
	sel := GreedySelectPairs(w, cfg.Tau)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sel.SelectedSubscribers(workload.TopicID(g))
			sel.SelectedRate(workload.SubID(g))
		}(g)
	}
	wg.Wait()
	if !sel.Satisfied(cfg.Tau) {
		t.Fatal("selection reads unsatisfied after concurrent view builds")
	}
}

// Cancelling a heterogeneous solve mid-pack aborts the whole portfolio
// promptly, returns the context's error, and joins every portfolio
// goroutine — no leaks.
func TestPortfolioCancelPropagatesAndLeaksNoGoroutines(t *testing.T) {
	w := bigWorkload(t)
	cfg := bigConfig(w, nil)
	cfg.Fleet = testFleet(t, cfg.Model.CapacityBytesPerHour())
	sel := GreedySelectPairs(w, cfg.Tau)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelMidStage{stage: StagePack, cancel: cancel}
	cfg.Observer = obs
	start := time.Now()
	if _, err := PackSelection(ctx, sel, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("portfolio returned %v after cancellation, want prompt abort", d)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled portfolio",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// A primary (mixed-fleet) failure cancels the single-type restrictions and
// surfaces the primary's error, at every worker count.
func TestPortfolioPrimaryErrorPropagates(t *testing.T) {
	// One topic whose rate exceeds every fleet capacity: the mixed pack
	// (and every restriction) is infeasible.
	w := mustWorkload(t, []int64{500}, [][]workload.TopicID{{0}})
	cfg := configWith(1000, 100, Stage2Custom, OptAll)
	cfg.Fleet = testFleet(t, 25) // caps 25/50/100 < 2·500
	sel := SelectAllPairs(w)
	for _, par := range []int{1, -1} {
		c := cfg
		c.Parallelism = par
		if _, err := PackSelection(context.Background(), sel, c); !errors.Is(err, ErrInfeasible) {
			t.Errorf("parallelism %d: err = %v, want ErrInfeasible", par, err)
		}
	}
}

// The sharded stage-1 propagates the first worker error, cancels the
// sibling shards, and joins everything — the caller context's error wins
// the report.
func TestStage1ParallelFirstErrorCancelsSiblings(t *testing.T) {
	w := bigWorkload(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := bigConfig(w, nil)
	cfg.Parallelism = 8
	if _, err := GreedySelectPairsContext(ctx, w, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after failed parallel stage 1",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
