package deploy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/pubsub-systems/mcss/internal/dynamic"
)

// Executor performs the external side effect of one plan step, which is
// the whole change of one broker: boot a VM and load its placements,
// reconfigure a running VM (its removals, then its placements), or drain
// and retire a VM. Apply invokes it once per step before mutating its
// working copy, so an executor failure leaves the in-memory state
// untouched. Execute must be idempotent per (plan, step index), that is
// per broker change: after a crash the journal replay re-runs only steps
// whose step-done record never made it to disk, and a step whose effect
// landed but whose record did not may be executed a second time on a
// broker already in the step's target state. Retries apply per step too,
// so a transient failure part-way through a broker's change is retried
// as that whole change.
type Executor interface {
	Execute(ctx context.Context, i, total int, s dynamic.Step) error
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(ctx context.Context, i, total int, s dynamic.Step) error

// Execute implements Executor.
func (f ExecutorFunc) Execute(ctx context.Context, i, total int, s dynamic.Step) error {
	return f(ctx, i, total, s)
}

// NopExecutor performs no external effect — the pure-simulation executor
// the daemon uses when steps have no real cloud API behind them.
var NopExecutor Executor = ExecutorFunc(func(context.Context, int, int, dynamic.Step) error { return nil })

// ErrStepFailed reports a step whose execution failed permanently: either
// the executor returned a non-transient error, or retries were exhausted.
// The apply aborts, the provisioner keeps its pre-apply state, and the
// journal records the abort so recovery does not try to resume the plan.
var ErrStepFailed = errors.New("deploy: step execution failed")

// ErrSimulatedCrash is returned by a FaultInjector in crash mode. Apply
// propagates it verbatim without writing an abort record, leaving the
// journal exactly as a kill -9 would: plan-begin plus the step-done
// records that were already durable.
var ErrSimulatedCrash = errors.New("deploy: simulated crash")

// transientError marks an executor failure as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the retry executor treats it as retryable. A nil
// err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable via Transient.
// Per-attempt timeouts (context.DeadlineExceeded) also count as transient.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// The retry backoff: the delay before the first retry, doubled for each
// further retry up to the cap. The realized delay is jittered uniformly
// in [d/2, d).
const (
	baseBackoff = 25 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// RetryConfig tunes a RetryExecutor. Zero values select the defaults
// noted on each field.
type RetryConfig struct {
	// MaxAttempts bounds executions per step, first try included
	// (default 4).
	MaxAttempts int
	// StepTimeout bounds each attempt with its own deadline context
	// (0 = none). An attempt that outlives it fails transiently and is
	// retried; the parent context's cancellation still aborts outright.
	StepTimeout time.Duration
	// Seed makes the jitter deterministic (0 picks a fixed default).
	Seed int64
	// Sleep replaces the inter-attempt wait, letting tests skip real
	// delays. It must honor ctx. Nil uses a timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry fires before each retry with the failed attempt number
	// (1-based) and its error.
	OnRetry func(step, attempt int, err error)
	// OnGiveUp fires when a step exhausts MaxAttempts or fails
	// permanently, before ErrStepFailed is returned.
	OnGiveUp func(step, attempts int, err error)
}

// RetryExecutor wraps an inner executor with the failure semantics real
// cloud steps need: a per-attempt timeout, bounded exponential backoff
// with deterministic jitter, and the transient-vs-permanent contract —
// errors marked with Transient (and per-attempt timeouts) are retried up
// to MaxAttempts, anything else aborts immediately as ErrStepFailed.
type RetryExecutor struct {
	inner Executor
	cfg   RetryConfig
	rng   *rand.Rand
}

// NewRetryExecutor wraps inner with cfg's retry policy.
func NewRetryExecutor(inner Executor, cfg RetryConfig) *RetryExecutor {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &RetryExecutor{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Execute implements Executor.
func (e *RetryExecutor) Execute(ctx context.Context, i, total int, s dynamic.Step) error {
	for attempt := 1; ; attempt++ {
		err := e.attempt(ctx, i, total, s)
		if err == nil {
			return nil
		}
		// A simulated crash models process death: no retries, no
		// wrapping — the caller must see it exactly as thrown.
		if errors.Is(err, ErrSimulatedCrash) {
			return err
		}
		// The parent context dying aborts the apply regardless of the
		// error's own class.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if !IsTransient(err) && !errors.Is(err, context.DeadlineExceeded) {
			if e.cfg.OnGiveUp != nil {
				e.cfg.OnGiveUp(i, attempt, err)
			}
			return fmt.Errorf("%w: step %d/%d (%s): %w", ErrStepFailed, i, total, s, err)
		}
		if attempt >= e.cfg.MaxAttempts {
			if e.cfg.OnGiveUp != nil {
				e.cfg.OnGiveUp(i, attempt, err)
			}
			return fmt.Errorf("%w: step %d/%d (%s): %d attempts exhausted: %w",
				ErrStepFailed, i, total, s, attempt, err)
		}
		if e.cfg.OnRetry != nil {
			e.cfg.OnRetry(i, attempt, err)
		}
		if err := e.sleep(ctx, e.backoff(attempt)); err != nil {
			return err
		}
	}
}

// attempt runs one execution under the per-attempt timeout.
func (e *RetryExecutor) attempt(ctx context.Context, i, total int, s dynamic.Step) error {
	if e.cfg.StepTimeout > 0 {
		actx, cancel := context.WithTimeout(ctx, e.cfg.StepTimeout)
		defer cancel()
		ctx = actx
	}
	return e.inner.Execute(ctx, i, total, s)
}

// backoff computes the jittered delay before retry number attempt.
func (e *RetryExecutor) backoff(attempt int) time.Duration {
	d := baseBackoff
	for n := 1; n < attempt && d < maxBackoff; n++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	// Uniform jitter in [d/2, d) decorrelates concurrent appliers.
	return d/2 + time.Duration(e.rng.Int63n(int64(d/2)+1))
}

func (e *RetryExecutor) sleep(ctx context.Context, d time.Duration) error {
	if e.cfg.Sleep != nil {
		return e.cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// EffectLog counts realized step effects across executor instances, so a
// crash-resume test can assert exactly-once execution spanning the
// pre-crash and post-recovery applies.
type EffectLog struct {
	counts map[int]int
}

// NewEffectLog returns an empty effect log.
func NewEffectLog() *EffectLog { return &EffectLog{counts: make(map[int]int)} }

func (l *EffectLog) record(step int) {
	if l.counts == nil {
		l.counts = make(map[int]int)
	}
	l.counts[step]++
}

// Executions returns how many times step i's effect landed.
func (l *EffectLog) Executions(step int) int { return l.counts[step] }

// MaxPerStep returns the largest per-step effect count (0 when empty);
// a value above 1 means a duplicate effect.
func (l *EffectLog) MaxPerStep() int {
	max := 0
	for _, n := range l.counts {
		if n > max {
			max = n
		}
	}
	return max
}

// Total returns the number of effects across all steps.
func (l *EffectLog) Total() int {
	sum := 0
	for _, n := range l.counts {
		sum += n
	}
	return sum
}

// FaultConfig programs a FaultInjector. All probabilities are evaluated
// per execution attempt with the injector's seeded generator.
type FaultConfig struct {
	// FailProb injects a transient failure (before the effect lands).
	FailProb float64
	// PermanentProb injects a permanent failure (before the effect).
	PermanentProb float64
	// Crash arms CrashAtStep; the zero config never crashes.
	Crash bool
	// CrashAtStep simulates process death when executing this step
	// index: ErrSimulatedCrash is returned before the effect, or the
	// process exits when CrashProcess is set. Crashing at step i
	// therefore models "crash after step i-1 committed".
	CrashAtStep int
	// CrashProcess escalates the simulated crash to os.Exit(137) — the
	// real kill -9 for CI smoke tests. Leave unset in-process.
	CrashProcess bool
	// Latency is added to every execution attempt.
	Latency time.Duration
	// Seed makes the fault sequence reproducible (0 picks 1).
	Seed int64
	// Effects, when set, records realized step effects — share one log
	// across the pre-crash and resumed injectors to detect duplicates.
	Effects *EffectLog
}

// FaultInjector wraps an executor with deterministic seeded fault
// injection: transient failures with probability FailProb, permanent
// failures with PermanentProb, a simulated crash at a chosen step, and
// added latency. Injected failures fire before the inner effect, matching
// the cloud-API model where a failed call did not take effect.
type FaultInjector struct {
	inner Executor
	cfg   FaultConfig
	rng   *rand.Rand
}

// NewFaultInjector wraps inner with cfg's fault program.
func NewFaultInjector(inner Executor, cfg FaultConfig) *FaultInjector {
	if inner == nil {
		inner = NopExecutor
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultInjector{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Execute implements Executor.
func (f *FaultInjector) Execute(ctx context.Context, i, total int, s dynamic.Step) error {
	if f.cfg.Latency > 0 {
		t := time.NewTimer(f.cfg.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if f.cfg.Crash && i == f.cfg.CrashAtStep {
		if f.cfg.CrashProcess {
			fmt.Fprintf(os.Stderr, "fault-injector: simulated process crash at step %d/%d\n", i, total)
			os.Exit(137)
		}
		return fmt.Errorf("%w: at step %d/%d", ErrSimulatedCrash, i, total)
	}
	if f.cfg.PermanentProb > 0 && f.rng.Float64() < f.cfg.PermanentProb {
		return fmt.Errorf("injected permanent fault at step %d (%s)", i, s)
	}
	if f.cfg.FailProb > 0 && f.rng.Float64() < f.cfg.FailProb {
		return Transient(fmt.Errorf("injected transient fault at step %d (%s)", i, s))
	}
	if err := f.inner.Execute(ctx, i, total, s); err != nil {
		return err
	}
	if f.cfg.Effects != nil {
		f.cfg.Effects.record(i)
	}
	return nil
}
