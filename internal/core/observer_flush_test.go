package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// flushRecorder records, per stage, the last OnProgress done/total and the
// StageStats handed to the optional extension. Mutex-guarded so the
// parallel stage-1 path can be driven too.
type flushRecorder struct {
	mu      sync.Mutex
	last    map[string][2]int64 // stage → {done, total} from latest OnProgress
	started map[string]int64
	done    map[string]bool
	stats   map[string]StageStats
}

func newFlushRecorder() *flushRecorder {
	return &flushRecorder{
		last:    map[string][2]int64{},
		started: map[string]int64{},
		done:    map[string]bool{},
		stats:   map[string]StageStats{},
	}
}

func (f *flushRecorder) OnStageStart(stage string, total int64) {
	f.mu.Lock()
	f.started[stage] = total
	f.mu.Unlock()
}
func (f *flushRecorder) OnProgress(stage string, done, total int64) {
	f.mu.Lock()
	f.last[stage] = [2]int64{done, total}
	f.mu.Unlock()
}
func (f *flushRecorder) OnStageDone(stage string, elapsed time.Duration) {
	f.mu.Lock()
	f.done[stage] = true
	f.mu.Unlock()
}
func (f *flushRecorder) OnEpoch(epoch, total int) {}
func (f *flushRecorder) OnStageStats(s StageStats) {
	f.mu.Lock()
	f.stats[s.Stage] = s
	f.mu.Unlock()
}

var _ StatsObserver = (*flushRecorder)(nil)

// checkFlushed asserts the stage completed with its final OnProgress
// reporting every unit — the remainder-flush invariant: with a
// sub-checkInterval workload no batched OnProgress ever fires, so the
// only report is the completion flush, and it must equal the total.
func (f *flushRecorder) checkFlushed(t *testing.T, stage string) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	total, ok := f.started[stage]
	if !ok {
		t.Errorf("stage %q never started", stage)
		return
	}
	if !f.done[stage] {
		t.Errorf("stage %q never finished", stage)
		return
	}
	last, ok := f.last[stage]
	if !ok {
		t.Errorf("stage %q finished without any OnProgress (remainder not flushed)", stage)
		return
	}
	if last[0] != total || last[1] != total {
		t.Errorf("stage %q final progress = %d/%d, want %d/%d (remainder not flushed)",
			stage, last[0], last[1], total, total)
	}
	st, ok := f.stats[stage]
	if !ok {
		t.Errorf("stage %q: OnStageStats never fired", stage)
		return
	}
	if st.Done != total || st.Total != total || st.Elapsed < 0 {
		t.Errorf("stage %q StageStats = %+v, want Done=Total=%d", stage, st, total)
	}
}

// smallWorkload is deliberately far below checkInterval (8192) units so no
// batched OnProgress fires — only the completion flush can report the work.
func smallWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 40, Subscribers: 500, MaxFollowings: 4, MaxRate: 50, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func smallConfig(obs Observer) Config {
	m := pricing.NewModel(pricing.C3Large)
	m.CapacityOverrideBytesPerHour = 40 * 50 * 200
	cfg := DefaultConfig(30, m)
	cfg.Observer = obs
	return cfg
}

// TestObserverRemainderFlushed pins reported units == total units for every
// ticker-driven path on a sub-checkInterval workload: sequential stage 1,
// all three stage-2 packers, and the lower bound.
func TestObserverRemainderFlushed(t *testing.T) {
	ctx := context.Background()
	w := smallWorkload(t)

	t.Run("solve", func(t *testing.T) {
		obs := newFlushRecorder()
		if _, err := SolveContext(ctx, w, smallConfig(obs)); err != nil {
			t.Fatal(err)
		}
		obs.checkFlushed(t, StageSelect)
		obs.checkFlushed(t, StagePack)
	})

	t.Run("packers", func(t *testing.T) {
		for name, pack := range map[string]packFunc{"ffbp": FFBinPackingContext, "cbp": CustomBinPackingContext} {
			obs := newFlushRecorder()
			cfg := smallConfig(obs)
			cfg.Stage2 = pack
			if _, err := SolveContext(ctx, w, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			obs.checkFlushed(t, StagePack)
		}
	})

	t.Run("bfd", func(t *testing.T) {
		obs := newFlushRecorder()
		cfg := smallConfig(obs)
		sel, err := GreedySelectPairsContext(ctx, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BFDBinPackingContext(ctx, sel, cfg); err != nil {
			t.Fatal(err)
		}
		obs.checkFlushed(t, StagePack)
	})

	t.Run("parallel-stage1", func(t *testing.T) {
		obs := newFlushRecorder()
		cfg := smallConfig(obs)
		cfg.Parallelism = 4
		if _, err := GreedySelectPairsContext(ctx, w, cfg); err != nil {
			t.Fatal(err)
		}
		obs.checkFlushed(t, StageSelect)
	})

	t.Run("lowerbound", func(t *testing.T) {
		obs := newFlushRecorder()
		if _, err := LowerBoundContext(ctx, w, smallConfig(obs)); err != nil {
			t.Fatal(err)
		}
		obs.checkFlushed(t, StageLowerBound)
	})
}
