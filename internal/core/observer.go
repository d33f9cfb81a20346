package core

import (
	"context"
	"time"
)

// Observer receives progress callbacks from long-running solver paths: the
// two solve stages, the lower bound, the exact solver, and the elastic
// controller's epoch walk. Implementations must be cheap — callbacks fire
// from hot loops (throttled to checkInterval-sized batches) — and must not
// retain the arguments beyond the call. A nil Observer is always legal and
// disables all callbacks. Callbacks fire on the goroutine that called the
// solver, at every Config.Parallelism.
//
// Stage names are stable identifiers ("stage1", "stage2", "lowerbound",
// "exact"); totals are in stage-specific units (subscribers, topic
// groups, DP nodes). A total of 0 means unknown; elastic epoch progress
// arrives via OnEpoch, not as a stage.
type Observer interface {
	// OnStageStart fires once when a stage begins.
	OnStageStart(stage string, total int64)
	// OnProgress fires periodically with done ≤ total units completed.
	OnProgress(stage string, done, total int64)
	// OnStageDone fires once when a stage completes (not on error).
	OnStageDone(stage string, elapsed time.Duration)
	// OnEpoch fires after the elastic controller finishes each timeline
	// epoch (epoch is 0-based, of total epochs).
	OnEpoch(epoch, total int)
}

// StageStats is the consolidated per-stage completion record: final unit
// count, total, and wall time in one value. It exists so stage timing and
// throughput don't require wall-clock bookkeeping at every Observer call
// site — implementations that also satisfy StatsObserver receive it once
// per completed stage, immediately after OnStageDone.
type StageStats struct {
	Stage   string
	Done    int64
	Total   int64
	Elapsed time.Duration
}

// StatsObserver is the optional extension of Observer for implementations
// that want consolidated StageStats (the metrics layer does). Plain
// Observers — report.NewProgress among them — keep working untouched: the
// solver detects the extension by type assertion, which is the adapter
// between the two shapes.
type StatsObserver interface {
	Observer
	// OnStageStats fires once per completed stage, after OnStageDone,
	// with the final flushed unit count and elapsed wall time.
	OnStageStats(StageStats)
}

// FinishStage is the single exit path for stage completion: it flushes the
// final progress (so any sub-checkInterval remainder is always reported),
// fires OnStageDone, and hands StageStats to observers that want it.
// Every solver path — ticker-driven or not — must complete through here;
// the remainder-flush regression test pins the invariant.
func FinishStage(obs Observer, stage string, done, total int64, elapsed time.Duration) {
	if obs == nil {
		return
	}
	obs.OnProgress(stage, done, total)
	obs.OnStageDone(stage, elapsed)
	if so, ok := obs.(StatsObserver); ok {
		so.OnStageStats(StageStats{Stage: stage, Done: done, Total: total, Elapsed: elapsed})
	}
}

// NopObserver is an Observer that ignores every callback. Attach it (e.g.
// via the Planner's WithObserver(nil), which maps to it) to explicitly
// silence a solve even when the context carries an ambient observer —
// ResolveObserver treats any non-nil config observer, including this one,
// as the caller's final word.
var NopObserver Observer = nopObserver{}

type nopObserver struct{}

func (nopObserver) OnStageStart(string, int64)        {}
func (nopObserver) OnProgress(string, int64, int64)   {}
func (nopObserver) OnStageDone(string, time.Duration) {}
func (nopObserver) OnEpoch(int, int)                  {}

type observerCtxKey struct{}

// ContextWithObserver returns a context carrying obs. SolveContext,
// LowerBoundContext, the exact solver, and the elastic controller fall
// back to the context's observer when their config carries none — the
// hook that lets a CLI turn on progress for a whole driver stack without
// threading an observer through every layer.
func ContextWithObserver(ctx context.Context, obs Observer) context.Context {
	return context.WithValue(ctx, observerCtxKey{}, obs)
}

// ObserverFromContext returns the context's observer, or nil.
func ObserverFromContext(ctx context.Context) Observer {
	obs, _ := ctx.Value(observerCtxKey{}).(Observer)
	return obs
}

// ResolveObserver applies the config-over-context precedence every
// observer-aware entry point shares: an explicitly configured observer
// wins, otherwise the context's (ambient) observer is used.
func ResolveObserver(ctx context.Context, cfg Config) Observer {
	if cfg.Observer != nil {
		return cfg.Observer
	}
	return ObserverFromContext(ctx)
}

// Stage name constants reported to Observer callbacks.
const (
	StageSelect     = "stage1"
	StagePack       = "stage2"
	StageLowerBound = "lowerbound"
	StageExact      = "exact"
)

// checkInterval is how many loop iterations pass between context-
// cancellation checks (and OnProgress callbacks) in the solver hot loops.
// It is sized so the check overhead stays well under the noise floor of
// the benchmarks: a ctx.Err() call every 8192 subscribers/pairs is
// amortized to fractions of a nanosecond per unit.
const checkInterval = 8192

// ticker batches context checks and progress callbacks for a hot loop.
// The zero value is not usable; build with newTicker. tick returns a non-nil
// error as soon as the context is cancelled, checking only once per
// checkInterval iterations so the fast path is one integer decrement.
type ticker struct {
	ctx   context.Context
	obs   Observer
	stage string
	total int64
	done  int64
	left  int64
}

func newTicker(ctx context.Context, obs Observer, stage string, total int64) *ticker {
	if obs != nil {
		obs.OnStageStart(stage, total)
	}
	return &ticker{ctx: ctx, obs: obs, stage: stage, total: total, left: checkInterval}
}

// tick advances the loop counter by n units and polls cancellation at the
// batching interval.
func (t *ticker) tick(n int64) error {
	t.done += n
	t.left -= n
	if t.left > 0 {
		return nil
	}
	t.left = checkInterval
	if err := t.ctx.Err(); err != nil {
		return err
	}
	if t.obs != nil {
		t.obs.OnProgress(t.stage, t.done, t.total)
	}
	return nil
}

// finish reports stage completion to the observer, flushing the final
// (possibly sub-checkInterval) progress remainder.
func (t *ticker) finish(elapsed time.Duration) {
	FinishStage(t.obs, t.stage, t.done, t.total, elapsed)
}
