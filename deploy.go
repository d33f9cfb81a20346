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

// Deployment lifecycle errors.
var (
	// ErrStalePlan reports that the cluster state no longer matches the
	// fingerprint a plan was computed against.
	ErrStalePlan = deploy.ErrStalePlan
	// ErrInvalidPlan reports a structurally unusable plan (bad version,
	// bad references, steps that do not reproduce the plan's target).
	ErrInvalidPlan = deploy.ErrInvalidPlan
	// ErrAborted reports an apply stopped by its observer; it wraps the
	// observer's own error.
	ErrAborted = deploy.ErrAborted
)

// EmptyClusterState returns the state of a never-deployed cluster — the
// base for bootstrap plans.
func EmptyClusterState() *ClusterState { return deploy.EmptyState() }

// ClusterStateOf captures a provisioner's current state.
func ClusterStateOf(prov *Provisioner) *ClusterState { return deploy.StateOf(prov) }

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
