package mcss

import (
	"context"

	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/traceio"
)

// The declarative deployment lifecycle: Plan → Diff → Apply.
//
// Planner.Plan solves the desired workload and computes a serializable
// DeployPlan against the current ClusterState (the workload diff, an
// executable step sequence, a forecast cost delta, and a fingerprint of
// the state it was computed against); Apply enacts the plan on a
// Provisioner, refusing stale plans, supporting dry runs and per-step
// progress, and rolling back on any mid-apply failure. Plans persist as
// versioned JSON via SavePlan/LoadPlan — the artifact an operator reviews,
// approves, and replays (see examples/gitops).
type (
	// DeployPlan is a serializable, verifiable reconfiguration.
	DeployPlan = deploy.Plan
	// DeployDiff is a plan's declarative difference: the workload delta
	// and the placement churn it enacts.
	DeployDiff = deploy.Diff
	// DeployStep is one executable plan action: the whole change of one
	// broker (boot a VM with its placements, reconfigure a VM, retire a
	// VM with the removals that empty it).
	DeployStep = dynamic.Step
	// DeployStepOp names a step's operation.
	DeployStepOp = dynamic.StepOp
	// ClusterState is one cluster state (workload + allocation), the
	// thing plans are computed against and Apply advances.
	ClusterState = deploy.State
	// ApplyReport summarizes one Apply call.
	ApplyReport = deploy.Report
	// ApplyOption configures Apply (dry run, step observer).
	ApplyOption = deploy.ApplyOption
	// DeployObserver is the function Apply calls before each step with
	// its index, the step count and the step; returning an error aborts
	// the apply and rolls back.
	DeployObserver = deploy.Observer
)

// The step operations a DeployPlan is built from, one broker per step.
const (
	StepBootVM      = dynamic.OpBootVM
	StepReconfigure = dynamic.OpReconfigure
	StepRetireVM    = dynamic.OpRetireVM
)

// Deployment lifecycle errors.
var (
	// ErrStalePlan reports that the cluster state no longer matches the
	// fingerprint a plan was computed against.
	ErrStalePlan = deploy.ErrStalePlan
	// ErrInvalidPlan reports a structurally unusable plan (bad version,
	// bad references, steps that do not reproduce the plan's target).
	ErrInvalidPlan = deploy.ErrInvalidPlan
)

// EmptyClusterState returns the state of a never-deployed cluster — the
// base for bootstrap plans.
func EmptyClusterState() *ClusterState { return deploy.EmptyState() }

// NewClusterState bundles a workload and the allocation serving it.
func NewClusterState(w *Workload, alloc *Allocation) *ClusterState {
	return deploy.NewState(w, alloc)
}

// ClusterStateOf captures a provisioner's current state.
func ClusterStateOf(prov *Provisioner) *ClusterState { return deploy.StateOf(prov) }

// StateFingerprint hashes a cluster state (workload + allocation); a plan
// applies only while the live state still matches the fingerprint it was
// computed against.
func StateFingerprint(w *Workload, alloc *Allocation) string {
	return dynamic.StateFingerprint(w, alloc)
}

// StepsBetween extracts the executable step sequence transforming one
// allocation into another — the same extraction Planner.Plan embeds in
// every plan, exposed for tools that diff allocations directly.
func StepsBetween(before, after *Allocation) []DeployStep {
	return dynamic.StepsBetween(before, after)
}

// Apply executes a plan against a provisioner: fingerprint check
// (ErrStalePlan on mismatch), step-by-step replay with step observer progress,
// verification against the plan's own target fingerprint, and only then
// adoption. On any failure the provisioner keeps its pre-apply state.
func Apply(ctx context.Context, plan *DeployPlan, prov *Provisioner, opts ...ApplyOption) (*ApplyReport, error) {
	return deploy.Apply(ctx, plan, prov, opts...)
}

// ApplyDryRun makes Apply validate and replay the plan without touching
// the provisioner.
func ApplyDryRun() ApplyOption { return deploy.DryRun() }

// WithStepObserver streams per-step progress to obs during Apply; a
// non-nil error from the observer aborts the apply and rolls back.
func WithStepObserver(obs DeployObserver) ApplyOption { return deploy.WithObserver(obs) }

// SnapshotPlan returns the zero-step plan pinning the given state — the
// self-describing cluster-state document cmd/mcss persists between plan
// and apply invocations.
func SnapshotPlan(cfg SolverConfig, s *ClusterState) (*DeployPlan, error) {
	return deploy.Snapshot(cfg, s)
}

// SavePlan writes a validated plan to path as a versioned JSON document
// (gzip when the path ends in ".gz"); invalid plans are rejected with
// ErrInvalidPlan before anything is written.
func SavePlan(p *DeployPlan, path string) error { return traceio.SavePlan(p, path) }

// LoadPlan reads a validated plan from path. Malformed bytes fail with
// traceio's ErrBadFormat; well-formed documents describing unusable plans
// fail with ErrInvalidPlan.
func LoadPlan(path string) (*DeployPlan, error) { return traceio.LoadPlan(path) }

// RestoreProvisioner rebuilds a Provisioner around a persisted cluster
// state without re-solving — how a process that loaded state from disk
// re-enters the online re-provisioning machinery to Apply a plan.
func RestoreProvisioner(s *ClusterState, cfg SolverConfig) (*Provisioner, error) {
	return s.Provisioner(cfg)
}

// Crash-safe applies: the durable journal, the executor contract, and
// recovery. An ApplyJournal records plan-begin / step-done / plan-commit
// around every journaled Apply; after a crash, RecoverJournal returns the
// last durable state plus the in-flight plan and the first step not known
// durable, and ResumeFrom finishes that plan exactly where it died.
type (
	// DeployExecutor runs the real-world side effect of one plan step;
	// wrap failures in Transient to request a retry.
	DeployExecutor = deploy.Executor
	// DeployExecutorFunc adapts a function to DeployExecutor.
	DeployExecutorFunc = deploy.ExecutorFunc
	// RetryConfig tunes a retrying executor: attempt budget, per-attempt
	// timeout, jitter seed.
	RetryConfig = deploy.RetryConfig
	// ApplyJournal is the durable write-ahead log of applied plans.
	ApplyJournal = deploy.Journal
	// JournalOptions tunes journal durability (fsync batching).
	JournalOptions = deploy.JournalOptions
	// JournalRecovery is what a journal replay reconstructs: the durable
	// state, any in-flight plan, and the step to resume from.
	JournalRecovery = deploy.Recovery
	// FaultConfig arms a fault-injecting executor (seeded transient and
	// permanent faults, crash-at-step) for chaos tests.
	FaultConfig = deploy.FaultConfig
	// EffectLog counts per-step executor effects across a crash — the
	// exactly-once witness in chaos tests.
	EffectLog = deploy.EffectLog
)

// Crash-safety errors.
var (
	// ErrAborted reports an apply stopped by its observer; it wraps the
	// observer's own error.
	ErrAborted = deploy.ErrAborted
	// ErrStepFailed reports a step whose execution failed permanently
	// (a permanent executor error, or a transient one past its budget).
	ErrStepFailed = deploy.ErrStepFailed
	// ErrCorruptJournal reports journal bytes damaged beyond the torn-tail
	// rule; recovery still returns the valid prefix alongside it.
	ErrCorruptJournal = deploy.ErrCorruptJournal
	// ErrSimulatedCrash is a FaultInjector's crash, passed through Apply
	// verbatim so chaos tests observe a half-applied journal.
	ErrSimulatedCrash = deploy.ErrSimulatedCrash
)

// Transient marks an executor failure retryable; unmarked errors are
// permanent and fail the apply as ErrStepFailed.
func Transient(err error) error { return deploy.Transient(err) }

// IsTransient reports whether err carries the Transient marker.
func IsTransient(err error) bool { return deploy.IsTransient(err) }

// NewRetryExecutor wraps inner with bounded exponential backoff and
// per-attempt timeouts; only Transient failures are retried.
func NewRetryExecutor(inner DeployExecutor, cfg RetryConfig) DeployExecutor {
	return deploy.NewRetryExecutor(inner, cfg)
}

// NewFaultInjector wraps inner with seeded fault injection for chaos
// tests; see FaultConfig.
func NewFaultInjector(inner DeployExecutor, cfg FaultConfig) DeployExecutor {
	return deploy.NewFaultInjector(inner, cfg)
}

// NewEffectLog returns an empty per-step effect counter.
func NewEffectLog() *EffectLog { return deploy.NewEffectLog() }

// OpenApplyJournal opens (or creates) the durable apply journal at path,
// truncating a torn tail from an interrupted write. Corrupt journals are
// refused with ErrCorruptJournal — recover first.
func OpenApplyJournal(path string, opts JournalOptions) (*ApplyJournal, error) {
	return traceio.OpenJournal(path, opts)
}

// RecoverApplyJournal replays the journal at path into the last durable
// state plus any in-flight plan. On corruption it returns both the
// recovery of the valid prefix and ErrCorruptJournal, so callers can
// serve what was durable read-only.
func RecoverApplyJournal(path string) (*JournalRecovery, error) {
	return traceio.RecoverJournal(path)
}

// WithApplyJournal makes Apply record plan-begin, per-step step-done, and
// plan-commit records to j — commit is journaled before the in-memory
// adoption, so the journal never claims less than what happened.
func WithApplyJournal(j *ApplyJournal) ApplyOption { return deploy.WithJournal(j) }

// WithApplyEpoch tags this apply's journal records with a timeline epoch.
func WithApplyEpoch(epoch int) ApplyOption { return deploy.WithApplyEpoch(epoch) }

// WithStepExecutor runs every step's real-world side effect through exec
// (typically a NewRetryExecutor around the cloud API binding).
func WithStepExecutor(exec DeployExecutor) ApplyOption { return deploy.WithExecutor(exec) }

// ResumeFrom replays steps below next into the working copy without
// executor effects or fresh journal records, then executes the remainder
// normally — how a recovered in-flight plan finishes exactly once.
func ResumeFrom(next int) ApplyOption { return deploy.ResumeFrom(next) }
