package deploy

import (
	"context"
	"errors"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// ErrAborted reports an apply the configured Observer stopped. It wraps
// the observer's own error, so callers can distinguish
// aborted-and-rolled-back (errors.Is(err, ErrAborted)) from a step whose
// execution failed (ErrStepFailed) — both leave the provisioner on its
// pre-apply state.
var ErrAborted = errors.New("deploy: apply aborted by observer")

// Observer receives per-step progress during Apply. OnStep fires before
// step i (0-based of total) executes; returning a non-nil error aborts the
// apply — the hook an interactive approval gate or a deadline budget uses
// — and the provisioner rolls back to its pre-apply state. Callbacks fire
// from the calling goroutine.
type Observer interface {
	OnStep(i, total int, s dynamic.Step) error
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(i, total int, s dynamic.Step) error

// OnStep implements Observer.
func (f ObserverFunc) OnStep(i, total int, s dynamic.Step) error { return f(i, total, s) }

// ApplyOption configures one Apply call.
type ApplyOption func(*applyOptions)

type applyOptions struct {
	dryRun     bool
	obs        Observer
	exec       Executor
	journal    *Journal
	epoch      int64
	resume     bool
	resumeFrom int
}

// DryRun validates and replays the plan — fingerprint check, every step,
// target verification — but leaves the provisioner untouched: the "would
// this apply cleanly right now?" probe.
func DryRun() ApplyOption {
	return func(o *applyOptions) { o.dryRun = true }
}

// WithObserver streams per-step progress to obs during Apply.
func WithObserver(obs Observer) ApplyOption {
	return func(o *applyOptions) { o.obs = obs }
}

// WithExecutor performs each step's external effect through exec before
// the in-memory state advances. Executor failures abort the apply with
// ErrStepFailed (and roll back), except ErrSimulatedCrash, which
// propagates verbatim and leaves any journal mid-plan — the crash model.
// Dry runs never execute.
func WithExecutor(exec Executor) ApplyOption {
	return func(o *applyOptions) { o.exec = exec }
}

// WithJournal makes the apply durable: plan-begin before the first step,
// step-done after each step's effect, plan-commit after verification,
// plan-abort on clean failure. A context cancellation or simulated crash
// writes no abort record, so recovery resumes the plan. Dry runs never
// journal.
func WithJournal(j *Journal) ApplyOption {
	return func(o *applyOptions) { o.journal = j }
}

// WithApplyEpoch tags this apply's journal records with the controller
// epoch (untagged applies record -1).
func WithApplyEpoch(epoch int) ApplyOption {
	return func(o *applyOptions) { o.epoch = int64(epoch) }
}

// ResumeFrom continues a half-applied plan after a crash: steps before
// next replay against the working copy only (their effects already
// landed and were journaled — no executor, no observer, no step-done
// records), execution restarts at step next, and no fresh plan-begin
// record is written. Pair it with Recovery.NextStep.
func ResumeFrom(next int) ApplyOption {
	return func(o *applyOptions) {
		o.resume = true
		o.resumeFrom = next
	}
}

// Report summarizes one Apply.
type Report struct {
	// DryRun echoes whether the provisioner was left untouched.
	DryRun bool
	// StepsApplied counts executed steps (all of them on success).
	StepsApplied int
	// Stats is the realized churn from the pre-apply allocation to the
	// applied one, with cost and fleet-size fields filled.
	Stats dynamic.MigrationStats
	// Cost is the applied allocation's cost under the plan's model —
	// equal to the plan's CostAfter forecast by construction.
	Cost pricing.MicroUSD
}

// Apply executes a plan against the provisioner: it validates the plan,
// refuses with ErrStalePlan when the provisioner's state no longer matches
// the plan's base fingerprint, verifies that the plan's steps replay from
// that state to the plan's own target and that its diff rebuilds the
// target workload, runs the steps (reporting each to the configured
// Observer and executing its effect through the configured Executor), and
// only then installs the new workload and allocation. A plan that fails
// verification is refused before any step runs or any journal record is
// written. On any mid-apply failure — a failed step, a cancelled context,
// an observer abort — the provisioner keeps its pre-apply workload and
// allocation: the replay runs on a private working copy, so rollback is
// the default, not a recovery action. What Apply needs only after the
// steps — the target fingerprint, the realized churn and the selection to
// adopt — is computed on a second goroutine while they run (see lane).
func Apply(ctx context.Context, plan *Plan, prov *dynamic.Provisioner, opts ...ApplyOption) (*Report, error) {
	o := applyOptions{epoch: -1}
	for _, opt := range opts {
		opt(&o)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if prov == nil {
		return nil, fmt.Errorf("%w: apply needs a provisioner (restore one from the current state)", ErrInvalidPlan)
	}
	pre := StateOf(prov)
	fp := pre.Fingerprint()
	if fp != plan.BaseFingerprint {
		return nil, fmt.Errorf("%w: cluster state is %s, plan was computed against %s",
			ErrStalePlan, fp, plan.BaseFingerprint)
	}
	pre.remember(fp)

	journaling := o.journal != nil && !o.dryRun
	// open reports that the journal holds this plan's begin record
	// without a commit or abort: a resumed plan, or once plan-begin is
	// written. abort then closes it with a plan-abort record — recovery
	// keeps the base state instead of resuming — and returns err.
	// Crash-like exits (context death, simulated crash) bypass it so the
	// journal stays mid-plan and resumable.
	open := journaling && o.resume
	abort := func(err error) (*Report, error) {
		if open {
			if jerr := o.journal.AppendPlanAbort(o.epoch, plan.BaseFingerprint); jerr != nil {
				err = fmt.Errorf("%w (journal abort record failed: %v)", err, jerr)
			}
		}
		return nil, err
	}

	// Verify the plan before anything runs. The replay also reprices
	// kept placements to the target workload's rates. The replayed
	// allocation must be the plan's own target — a plan whose steps do
	// not reproduce its target is invalid, not just stale — and the diff
	// must rebuild the target workload, because the plan-begin record
	// carries the diff and the steps in place of the target.
	if err := dynamic.CheckDelta(pre.Workload, plan.Target.Workload, plan.Diff.Delta); err != nil {
		return abort(fmt.Errorf("%w: diff does not rebuild the target workload: %v", ErrInvalidPlan, err))
	}
	work, err := dynamic.ReplaySteps(pre.Allocation, plan.Target.Workload, plan.MessageBytes, plan.Steps)
	if err != nil {
		return abort(fmt.Errorf("%w: %v", ErrInvalidPlan, err))
	}
	work.Fleet = plan.Fleet
	if !dynamic.SameAllocation(work, plan.Target.Allocation) {
		return abort(fmt.Errorf("%w: steps do not replay to the plan's target", ErrInvalidPlan))
	}

	// The plan is verified: what Apply needs after the step loop is
	// computed on the lane while the loop runs. The deferred join covers
	// every early return, so no lane outlives Apply.
	l := startLane(plan, pre.Allocation, work, o.dryRun)
	defer l.join()

	if journaling && !o.resume {
		if o.journal.head != plan.BaseFingerprint {
			// The base was installed outside any plan (a fleet reprice,
			// a crash repair): checkpoint it so the journal's
			// fingerprint chain reaches this plan. It is the state the
			// previous epoch left, so it carries that epoch's tag.
			snap, err := Snapshot(core.Config{
				Tau: plan.Tau, MessageBytes: plan.MessageBytes, Model: plan.Model, Fleet: plan.Fleet,
			}, pre)
			if err == nil {
				err = o.journal.AppendSnapshot(max(o.epoch-1, -1), snap)
			}
			if err != nil {
				return nil, fmt.Errorf("deploy: journal base snapshot: %w", err)
			}
		}
		if err := o.journal.AppendPlanBegin(o.epoch, plan); err != nil {
			return nil, fmt.Errorf("deploy: journal plan-begin: %w", err)
		}
		open = true
	}
	total := len(plan.Steps)
	for i, s := range plan.Steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if o.resume && i < o.resumeFrom {
			// This step's effect landed before the crash (its
			// step-done record is durable).
			continue
		}
		if o.obs != nil {
			if err := o.obs.OnStep(i, total, s); err != nil {
				return abort(fmt.Errorf("%w: step %d/%d (%s): %w", ErrAborted, i, total, s, err))
			}
		}
		if o.exec != nil && !o.dryRun {
			if err := o.exec.Execute(ctx, i, total, s); err != nil {
				if errors.Is(err, ErrSimulatedCrash) {
					return nil, err
				}
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				if !errors.Is(err, ErrStepFailed) {
					err = fmt.Errorf("%w: step %d/%d (%s): %w", ErrStepFailed, i, total, s, err)
				}
				return abort(err)
			}
		}
		if journaling {
			if err := o.journal.AppendStepDone(o.epoch, i); err != nil {
				return nil, fmt.Errorf("deploy: journal step-done: %w", err)
			}
		}
	}

	l.join()
	report := &Report{
		DryRun:       o.dryRun,
		StepsApplied: total,
		Stats:        l.stats,
		Cost:         l.stats.CostAfter,
	}
	if o.dryRun {
		return report, nil
	}

	// Adopt the plan's own target allocation when the replay proves it
	// faithful (SameAllocation pins instances and placements; the extra
	// accounting check below covers the derived fields it deliberately
	// excludes). Pointer identity with the planner's target is what lets
	// a persistent incremental index survive a plan-mediated adoption
	// instead of reindexing every epoch. A hand-crafted plan whose target
	// carries stale accounting falls back to the replayed copy.
	adopt := work
	if t := plan.Target.Allocation; accountingMatches(t, work) && !t.Fleet.IsZero() {
		adopt = t
	}
	// Commit is journaled before the in-memory adoption: once the commit
	// record is durable, a crash on either side of Adopt recovers to the
	// plan's target.
	if journaling {
		if err := o.journal.AppendPlanCommit(o.epoch, l.fp); err != nil {
			return nil, fmt.Errorf("deploy: journal plan-commit: %w", err)
		}
	}
	prov.AdoptFingerprinted(plan.Target.Workload, &core.Result{Selection: l.sel, Allocation: adopt}, l.fp)
	return report, nil
}

// lane computes, on a goroutine of its own, what Apply needs only after
// its step loop: the realized churn, and unless the apply is a dry run the
// target fingerprint for the commit record and the selection to adopt.
// Its inputs — the verified pre-state allocation, the replayed allocation
// and the plan's target — are final before the loop starts, and nothing
// writes them until Apply joins the lane, so this CPU work overlaps the
// loop's journal fsyncs. The lane calls no hook: observers, executors,
// the journal codec and journal hooks all run on Apply's calling
// goroutine.
type lane struct {
	done     chan struct{}
	panicked any

	stats dynamic.MigrationStats
	fp    string
	sel   *core.Selection
}

func startLane(plan *Plan, pre, work *core.Allocation, dryRun bool) *lane {
	l := &lane{done: make(chan struct{})}
	go func() {
		defer func() {
			l.panicked = recover()
			close(l.done)
		}()
		l.stats = plan.realizedStats(pre, work)
		if !dryRun {
			l.fp = plan.TargetFingerprint()
			l.sel = core.PlacedSelection(plan.Target.Workload, work)
		}
	}()
	return l
}

// join waits for the lane's results. A panic on the lane is raised again
// here, once, on the calling goroutine. join may be called more than once.
func (l *lane) join() {
	<-l.done
	if p := l.panicked; p != nil {
		l.panicked = nil
		panic(p)
	}
}

// accountingMatches reports whether two allocations with fingerprint-equal
// placements also agree on the derived per-VM bandwidth accounting.
func accountingMatches(a, b *core.Allocation) bool {
	if a == nil || len(a.VMs) != len(b.VMs) {
		return false
	}
	for i, vm := range a.VMs {
		o := b.VMs[i]
		if vm.InBytesPerHour != o.InBytesPerHour || vm.OutBytesPerHour != o.OutBytesPerHour ||
			vm.CapacityBytesPerHour != o.CapacityBytesPerHour || vm.Instance != o.Instance {
			return false
		}
	}
	return true
}
