package deploy

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/dynamic"
)

// noSleep makes retry loops instantaneous while still honoring ctx.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func testStep() dynamic.Step {
	return dynamic.Step{Op: dynamic.OpReconfigure}
}

func TestRetryExecutorTransientThenSuccess(t *testing.T) {
	attempts, retries := 0, 0
	exec := NewRetryExecutor(ExecutorFunc(func(context.Context, int, int, dynamic.Step) error {
		attempts++
		if attempts < 3 {
			return Transient(errors.New("flaky API"))
		}
		return nil
	}), RetryConfig{Sleep: noSleep, OnRetry: func(int, int, error) { retries++ }})
	if err := exec.Execute(context.Background(), 0, 1, testStep()); err != nil {
		t.Fatalf("transient failures within budget must succeed: %v", err)
	}
	if attempts != 3 || retries != 2 {
		t.Fatalf("attempts=%d retries=%d, want 3 and 2", attempts, retries)
	}
}

func TestRetryExecutorPermanentFailsImmediately(t *testing.T) {
	attempts, gaveUp := 0, 0
	exec := NewRetryExecutor(ExecutorFunc(func(context.Context, int, int, dynamic.Step) error {
		attempts++
		return errors.New("quota exceeded")
	}), RetryConfig{Sleep: noSleep, OnGiveUp: func(int, int, error) { gaveUp++ }})
	err := exec.Execute(context.Background(), 2, 5, testStep())
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("permanent error must surface as ErrStepFailed, got %v", err)
	}
	if attempts != 1 || gaveUp != 1 {
		t.Fatalf("permanent error retried: attempts=%d gaveUp=%d", attempts, gaveUp)
	}
}

func TestRetryExecutorExhaustsAttempts(t *testing.T) {
	attempts := 0
	exec := NewRetryExecutor(ExecutorFunc(func(context.Context, int, int, dynamic.Step) error {
		attempts++
		return Transient(errors.New("still flaky"))
	}), RetryConfig{MaxAttempts: 3, Sleep: noSleep})
	err := exec.Execute(context.Background(), 0, 1, testStep())
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("exhaustion must surface as ErrStepFailed, got %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts=%d, want MaxAttempts=3", attempts)
	}
}

func TestRetryExecutorStepTimeoutIsTransient(t *testing.T) {
	attempts := 0
	exec := NewRetryExecutor(ExecutorFunc(func(ctx context.Context, _, _ int, _ dynamic.Step) error {
		attempts++
		if attempts == 1 {
			<-ctx.Done() // outlive the per-attempt deadline
			return ctx.Err()
		}
		return nil
	}), RetryConfig{StepTimeout: 5 * time.Millisecond, Sleep: noSleep})
	if err := exec.Execute(context.Background(), 0, 1, testStep()); err != nil {
		t.Fatalf("per-attempt timeout must be retried: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts=%d, want 2", attempts)
	}
}

func TestRetryExecutorParentCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	exec := NewRetryExecutor(ExecutorFunc(func(context.Context, int, int, dynamic.Step) error {
		cancel() // the parent dies while the step is failing
		return Transient(errors.New("flaky"))
	}), RetryConfig{Sleep: noSleep})
	err := exec.Execute(ctx, 0, 1, testStep())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parent cancellation must abort, got %v", err)
	}
	if errors.Is(err, ErrStepFailed) {
		t.Fatal("cancellation must not be classified as a step failure")
	}
}

func TestRetryExecutorPassesSimulatedCrashVerbatim(t *testing.T) {
	inj := NewFaultInjector(NopExecutor, FaultConfig{Crash: true, CrashAtStep: 1})
	exec := NewRetryExecutor(inj, RetryConfig{Sleep: noSleep})
	if err := exec.Execute(context.Background(), 0, 3, testStep()); err != nil {
		t.Fatalf("non-crash step failed: %v", err)
	}
	err := exec.Execute(context.Background(), 1, 3, testStep())
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crash must pass through the retry layer verbatim, got %v", err)
	}
}

// TestApplyAbortContract pins the typed-error contract of a failed apply:
// an observer abort is ErrAborted wrapping the observer's own error, an
// executor failure is ErrStepFailed, the two are distinguishable, and
// both leave the provisioner on its pre-apply state.
func TestApplyAbortContract(t *testing.T) {
	cfg := testConfig()
	w := testWorkload(t, 7)
	ctx := context.Background()
	plan, err := SolvePlan(ctx, cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) < 2 {
		t.Fatalf("bootstrap plan has %d steps, need >= 2", len(plan.Steps))
	}
	cause := errors.New("operator said no")

	cases := []struct {
		name    string
		opts    func() []ApplyOption
		wantIs  error
		wantNot error
		cause   error
	}{
		{
			name: "observer abort",
			opts: func() []ApplyOption {
				return []ApplyOption{WithObserver(func(i, _ int, _ dynamic.Step) error {
					if i == 1 {
						return cause
					}
					return nil
				})}
			},
			wantIs: ErrAborted, wantNot: ErrStepFailed, cause: cause,
		},
		{
			name: "executor permanent failure",
			opts: func() []ApplyOption {
				return []ApplyOption{WithExecutor(ExecutorFunc(func(_ context.Context, i, _ int, _ dynamic.Step) error {
					if i == 1 {
						return fmt.Errorf("instance type retired")
					}
					return nil
				}))}
			},
			wantIs: ErrStepFailed, wantNot: ErrAborted,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prov, err := EmptyState().Provisioner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pre := StateOf(prov).Fingerprint()
			_, err = Apply(ctx, plan, prov, tc.opts()...)
			if !errors.Is(err, tc.wantIs) {
				t.Fatalf("want %v, got %v", tc.wantIs, err)
			}
			if errors.Is(err, tc.wantNot) {
				t.Fatalf("error %v must not also be %v", err, tc.wantNot)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("abort must wrap the observer's error, got %v", err)
			}
			if got := StateOf(prov).Fingerprint(); got != pre {
				t.Fatalf("failed apply moved the provisioner: %s -> %s", pre, got)
			}
		})
	}
}

func TestFaultInjectorEffectLog(t *testing.T) {
	effects := NewEffectLog()
	inj := NewFaultInjector(NopExecutor, FaultConfig{Effects: effects})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := inj.Execute(ctx, i, 3, testStep()); err != nil {
			t.Fatal(err)
		}
	}
	if err := inj.Execute(ctx, 1, 3, testStep()); err != nil {
		t.Fatal(err)
	}
	if effects.Total() != 4 || effects.MaxPerStep() != 2 || effects.Executions(1) != 2 {
		t.Fatalf("effect log miscounts: total=%d max=%d step1=%d",
			effects.Total(), effects.MaxPerStep(), effects.Executions(1))
	}
}
