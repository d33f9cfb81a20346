package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// cancelMidStage cancels the context the first time the named stage
// reports progress — guaranteeing the cancellation lands strictly inside
// that stage's hot loop. It records when it fired so tests can bound the
// cancel-to-return latency.
type cancelMidStage struct {
	stage     string
	cancel    context.CancelFunc
	fired     atomic.Bool
	cancelled atomic.Int64 // UnixNano of the cancel
}

func (c *cancelMidStage) OnStageStart(stage string, total int64) {}
func (c *cancelMidStage) OnProgress(stage string, done, total int64) {
	if stage == c.stage && c.fired.CompareAndSwap(false, true) {
		c.cancelled.Store(time.Now().UnixNano())
		c.cancel()
	}
}
func (c *cancelMidStage) OnStageDone(stage string, elapsed time.Duration) {}
func (c *cancelMidStage) OnEpoch(epoch, total int)                        {}

// cancelLatency asserts the stage actually saw the cancel and returns how
// long after it the solve returned.
func (c *cancelMidStage) cancelLatency(t *testing.T) time.Duration {
	t.Helper()
	if !c.fired.Load() {
		t.Fatalf("stage %q never reported progress; cancellation was not mid-stage", c.stage)
	}
	return time.Duration(time.Now().UnixNano() - c.cancelled.Load())
}

// bigWorkload is large enough that every stage crosses several
// checkInterval batches: > 100k subscribers and > 200k pairs.
func bigWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 500, Subscribers: 120_000, MaxFollowings: 4, MaxRate: 50, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func bigConfig(w *workload.Workload, obs Observer) Config {
	m := pricing.NewModel(pricing.C3Large)
	// Capacity for ~500 pairs per VM so Stage 2 does real packing work.
	m.CapacityOverrideBytesPerHour = 500 * 50 * 200
	cfg := DefaultConfig(30, m)
	cfg.Observer = obs
	return cfg
}

// A solve cancelled mid-Stage-1 returns context.Canceled well within the
// acceptance bound (< 1s from cancellation to return).
func TestSolveCancelledMidStage1(t *testing.T) {
	w := bigWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelMidStage{stage: StageSelect, cancel: cancel}
	_, err := SolveContext(ctx, w, bigConfig(w, obs))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := obs.cancelLatency(t); d > time.Second {
		t.Errorf("solve returned %v after cancellation, want < 1s", d)
	}
}

// A solve cancelled mid-Stage-2 (Stage 1 completes, packing is aborted)
// also returns context.Canceled promptly.
func TestSolveCancelledMidStage2(t *testing.T) {
	w := bigWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelMidStage{stage: StagePack, cancel: cancel}
	_, err := SolveContext(ctx, w, bigConfig(w, obs))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := obs.cancelLatency(t); d > time.Second {
		t.Errorf("solve returned %v after cancellation, want < 1s", d)
	}
}

// Cancelling the sharded Stage 1 joins every worker goroutine before
// returning: no goroutines leak from its fan-out.
func TestParallelStage1CancelLeaksNoGoroutines(t *testing.T) {
	w := bigWorkload(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // workers abort at their first batch tick
	cfg := bigConfig(w, nil)
	cfg.Parallelism = 8
	if _, err := GreedySelectPairsContext(ctx, w, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The workers are joined synchronously, but give the runtime a moment
	// to retire them before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled parallel stage 1",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// The parallel path under cancellation must also not deadlock when only
// some workers observe the cancel before finishing their shard.
func TestParallelStage1MidRunCancel(t *testing.T) {
	w := bigWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	cfg := bigConfig(w, nil)
	cfg.Parallelism = 4
	sel, err := GreedySelectPairsContext(ctx, w, cfg)
	// Either the solve finished before the cancel landed or it aborted
	// with the context error — both are correct; hanging or a partial
	// selection with a nil error are not.
	if err == nil {
		if sel == nil {
			t.Fatal("nil selection with nil error")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// LowerBound honors mid-loop cancellation the same way.
func TestLowerBoundCancelledMidLoop(t *testing.T) {
	w := bigWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelMidStage{stage: StageLowerBound, cancel: cancel}
	cfg := bigConfig(w, obs)
	if _, err := LowerBoundContext(ctx, w, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Progress totals are coherent: done never exceeds total, stages start
// before they progress, and both stages complete on an uncancelled solve.
type progressChecker struct {
	t       *testing.T
	started map[string]int64
}

func (p *progressChecker) OnStageStart(stage string, total int64) {
	p.started[stage] = total
}
func (p *progressChecker) OnProgress(stage string, done, total int64) {
	if _, ok := p.started[stage]; !ok {
		p.t.Errorf("OnProgress(%q) before OnStageStart", stage)
	}
	if total > 0 && done > total {
		p.t.Errorf("stage %q progress %d exceeds total %d", stage, done, total)
	}
}
func (p *progressChecker) OnStageDone(stage string, elapsed time.Duration) {
	if elapsed < 0 {
		p.t.Errorf("stage %q negative elapsed %v", stage, elapsed)
	}
}
func (p *progressChecker) OnEpoch(epoch, total int) {}

func TestObserverProgressCoherent(t *testing.T) {
	w := bigWorkload(t)
	obs := &progressChecker{t: t, started: map[string]int64{}}
	if _, err := SolveContext(context.Background(), w, bigConfig(w, obs)); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{StageSelect, StagePack} {
		if _, ok := obs.started[stage]; !ok {
			t.Errorf("stage %q never started", stage)
		}
	}
}
