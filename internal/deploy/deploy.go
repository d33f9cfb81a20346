// Package deploy is the declarative deployment lifecycle above the MCSS
// solver stack: Plan → Diff → Apply. NewPlan turns a target state (a
// workload and the allocation serving it, typically a solve's) into a
// serializable Plan — the computed workload Diff, an executable step
// sequence (boot, reconfigure and retire brokers), a forecast cost delta,
// and a fingerprint of the cluster state the plan was computed against;
// Apply executes the plan against a dynamic.Provisioner, refusing stale
// plans, supporting dry runs and per-step progress, and rolling back to
// the pre-apply allocation on any mid-apply failure.
//
// Splitting "compute the reconfiguration" from "enact it" is what lets an
// operator inspect, persist, approve, or replay a change before it runs:
// plans are plain data (see traceio's versioned JSON plan format), the
// fingerprint pins them to the exact state they were computed for, and the
// same lifecycle carries every mutation — initial bootstrap, diurnal
// autoscaling epochs (the elastic Controller emits one Plan per epoch),
// crash repairs, fleet swaps, and τ changes.
package deploy

import (
	"errors"
	"fmt"
	"strings"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// PlanVersion is the current plan schema version; serialized plans carry
// it so future schema changes stay detectable. Version 2 made one broker
// the unit of a step (boot-vm, reconfigure, retire-vm); plans of version
// 1, one topic per place or remove step, are upgraded as they are read.
const PlanVersion = 2

// Typed lifecycle errors.
var (
	// ErrInvalidPlan reports a plan that is structurally unusable: wrong
	// version, missing target, inconsistent steps, or steps that do not
	// reproduce the plan's own target state.
	ErrInvalidPlan = errors.New("deploy: invalid plan")
	// ErrStalePlan reports that the cluster state no longer matches the
	// fingerprint the plan was computed against; re-plan against the
	// current state instead of applying blind.
	ErrStalePlan = errors.New("deploy: plan is stale")
)

// State is one cluster state: the workload being served and the allocation
// serving it. It is what plans are computed against and what Apply
// advances. The zero-ish EmptyState is the state of a cluster with nothing
// deployed.
type State struct {
	Workload   *workload.Workload
	Allocation *core.Allocation

	// fp is a fingerprint known for exactly the workload and allocation
	// fpW and fpAlloc (see StateOf); Fingerprint uses it while the
	// fields still hold those pointers.
	fp      string
	fpW     *workload.Workload
	fpAlloc *core.Allocation
}

// EmptyState returns the never-deployed cluster state.
func EmptyState() *State {
	return &State{Workload: &workload.Workload{}, Allocation: &core.Allocation{}}
}

// NewState bundles a workload and the allocation serving it.
func NewState(w *workload.Workload, alloc *core.Allocation) *State {
	return &State{Workload: w, Allocation: alloc}
}

// StateOf captures a provisioner's current state, with the fingerprint
// the provisioner knows for it (the one the last Apply verified), so
// plans against it and stale checks need not hash the cluster.
func StateOf(prov *dynamic.Provisioner) *State {
	s := &State{Workload: prov.Workload(), Allocation: prov.Allocation()}
	if fp, ok := prov.KnownFingerprint(); ok {
		s.remember(fp)
	}
	return s
}

// Fingerprint hashes the state (see dynamic.StateFingerprint); equal
// fingerprints mean a plan computed against one state may be applied to
// the other.
func (s *State) Fingerprint() string {
	if s == nil {
		return dynamic.StateFingerprint(nil, nil)
	}
	if s.fp != "" && s.Workload == s.fpW && s.Allocation == s.fpAlloc {
		return s.fp
	}
	return dynamic.StateFingerprint(s.Workload, s.Allocation)
}

// remember records fp as the fingerprint of the state's current
// workload and allocation.
func (s *State) remember(fp string) {
	s.fp, s.fpW, s.fpAlloc = fp, s.Workload, s.Allocation
}

// Provisioner rebuilds a dynamic.Provisioner around the state without
// re-solving, deriving the selection from the placed pairs — how a cluster
// reloaded from disk re-enters the online re-provisioning machinery. A
// state whose placements fail core.CheckPlacements is refused.
func (s *State) Provisioner(cfg core.Config) (*dynamic.Provisioner, error) {
	if err := core.CheckPlacements(s.Workload, s.Allocation); err != nil {
		return nil, fmt.Errorf("deploy: restore: %w", err)
	}
	sel := core.PlacedSelection(s.Workload, s.Allocation)
	return dynamic.Restore(s.Workload, &core.Result{Selection: sel, Allocation: s.Allocation}, cfg), nil
}

// Diff is the declarative difference a plan enacts: the workload delta
// (what demand changed) and the placement churn (what the reconfiguration
// moves), reusing the dynamic package's delta and migration machinery.
type Diff struct {
	// Delta transforms the base workload into the target workload.
	Delta dynamic.Delta
	// Stats quantifies placement churn between the base and target
	// allocations, including fleet sizes and cost before/after.
	Stats dynamic.MigrationStats
}

// Plan is a serializable, verifiable reconfiguration: everything needed to
// review the change (diff, steps, forecast cost), to refuse it when the
// world moved on (the base fingerprint), and to enact it (the step
// sequence plus the target state). Produce plans with NewPlan; persist
// them with traceio.SavePlan/LoadPlan.
type Plan struct {
	// Version is the plan schema version (PlanVersion).
	Version int
	// BaseFingerprint pins the plan to the state it was computed against.
	BaseFingerprint string
	// Tau and MessageBytes echo the solve parameters.
	Tau          int64
	MessageBytes int64
	// Model prices the forecast (rental duration, transfer price).
	Model pricing.Model
	// Fleet is the instance catalog the target packs against.
	Fleet pricing.Fleet
	// Diff is the reviewed-facing summary of the change.
	Diff Diff
	// CostBefore and CostAfter forecast the objective around the change
	// under Model; the delta is what the reconfiguration buys.
	CostBefore, CostAfter pricing.MicroUSD
	// Steps is the executable action sequence in replay order, one step
	// per changed broker (see dynamic.StepsBetween).
	Steps []dynamic.Step
	// Target is the state the plan produces when applied. A plan read
	// back from a plan-begin journal record has none until Recover
	// rebuilds it from the journaled base state, the diff and the steps.
	Target *State
	// TargetRegions are the target workload's region tags in a plan
	// without its Target, when the target is region-tagged (a diff does
	// not carry tags); nil in every plan that has its Target.
	TargetRegions *Regions

	// statsFrom records what NewPlan computed Diff.Stats from; nil in a
	// plan built any other way (see realizedStats).
	statsFrom *statsOrigin
}

// statsOrigin is NewPlan's record of Diff.Stats: the base and target
// allocations it diffed, the model it priced them under, and a copy of
// the stats. Like State's fingerprint memo it is keyed by pointer.
type statsOrigin struct {
	base, target *core.Allocation
	model        pricing.Model
	stats        dynamic.MigrationStats
}

// realizedStats is the churn from pre to the replayed allocation work,
// which Apply has shown equals the plan's target in placements.
// NewPlan's Diff.Stats already measured it when pre and the target are
// the allocations NewPlan diffed, the stats and model are as it left
// them, and the target's accounting is the replay's; any other plan (read
// from a file or a journal, or edited) is diffed afresh.
func (p *Plan) realizedStats(pre, work *core.Allocation) dynamic.MigrationStats {
	if o := p.statsFrom; o != nil && o.base == pre && o.target == p.Target.Allocation &&
		o.model == p.Model && o.stats == p.Diff.Stats && accountingMatches(p.Target.Allocation, work) {
		return p.Diff.Stats
	}
	return dynamic.MigrationStatsBetween(pre, work, p.Model)
}

// Regions are a workload's region tags (see workload.WithRegions):
// Topics[t] is the region of topic t's publisher, Subscribers[v] the
// region of subscriber v.
type Regions struct {
	Topics, Subscribers []int32
}

// withoutTarget returns the plan-begin body of a plan with a target: the
// plan without it, with the target's region tags when it has any.
func (p *Plan) withoutTarget() *Plan {
	b := *p
	b.Target = nil
	if w := p.Target.Workload; w.HasRegions() {
		b.TargetRegions = &Regions{Topics: w.TopicRegions(), Subscribers: w.SubscriberRegions()}
	}
	return &b
}

// CostDelta reports CostAfter − CostBefore (saturating).
func (p *Plan) CostDelta() pricing.MicroUSD { return p.CostAfter.Add(p.CostBefore.Mul(-1)) }

// StepMix counts the plan's steps by op, in the order a plan runs them:
// "2 boot-vm, 5 reconfigure, 1 retire-vm", leaving out ops without a
// step ("no steps" for a no-op plan).
func (p *Plan) StepMix() string {
	var mix []string
	for _, op := range []dynamic.StepOp{dynamic.OpBootVM, dynamic.OpReconfigure, dynamic.OpRetireVM} {
		n := 0
		for _, s := range p.Steps {
			if s.Op == op {
				n++
			}
		}
		if n > 0 {
			mix = append(mix, fmt.Sprintf("%d %s", n, op))
		}
	}
	if len(mix) == 0 {
		return "no steps"
	}
	return strings.Join(mix, ", ")
}

// TargetFingerprint is the fingerprint Apply leaves the cluster at.
func (p *Plan) TargetFingerprint() string { return p.Target.Fingerprint() }

// Validate checks the structural plan invariants — schema version, present
// target, target VMs of a named type with positive capacity, target
// placements passing core.CheckPlacements (references in range, a topic at
// most once per VM, a subscriber at most once per placement), in-range step
// references, each subscriber at most once per topic of a step's removals
// or placements, and each step's edits fitting its op (a boot places, a
// retirement removes, a reconfiguration does either or both) — and returns
// ErrInvalidPlan on the first violation. It is called by Apply and by the
// traceio plan reader, so a hostile or corrupt plan file fails closed
// instead of corrupting a cluster.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("%w: nil plan", ErrInvalidPlan)
	}
	if p.Version != PlanVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrInvalidPlan, p.Version, PlanVersion)
	}
	if p.BaseFingerprint == "" {
		return fmt.Errorf("%w: missing base fingerprint", ErrInvalidPlan)
	}
	if p.Tau <= 0 {
		return fmt.Errorf("%w: non-positive tau %d", ErrInvalidPlan, p.Tau)
	}
	if p.MessageBytes <= 0 {
		return fmt.Errorf("%w: non-positive message size %d", ErrInvalidPlan, p.MessageBytes)
	}
	if p.Target == nil || p.Target.Workload == nil || p.Target.Allocation == nil {
		return fmt.Errorf("%w: missing target state", ErrInvalidPlan)
	}
	for i, vm := range p.Target.Allocation.VMs {
		if vm.Instance.Name == "" || vm.CapacityBytesPerHour <= 0 {
			return fmt.Errorf("%w: target vm %d has instance %q with capacity %d (need a named type and positive capacity)",
				ErrInvalidPlan, i, vm.Instance.Name, vm.CapacityBytesPerHour)
		}
	}
	w := p.Target.Workload
	if err := core.CheckPlacements(w, p.Target.Allocation); err != nil {
		return fmt.Errorf("%w: target %v", ErrInvalidPlan, err)
	}
	numT, numV := w.NumTopics(), w.NumSubscribers()
	// lastList[v] is the number of the last step edit (counted from 1)
	// found listing subscriber v.
	lastList := make([]int32, numV)
	list := int32(0)
	for i, s := range p.Steps {
		switch s.Op {
		case dynamic.OpBootVM, dynamic.OpReconfigure, dynamic.OpRetireVM:
		default:
			return fmt.Errorf("%w: step %d has unknown op %q", ErrInvalidPlan, i, string(s.Op))
		}
		if s.VM < 0 {
			return fmt.Errorf("%w: step %d targets negative slot %d", ErrInvalidPlan, i, s.VM)
		}
		switch {
		case s.Op == dynamic.OpBootVM && (s.Instance.Name == "" || s.Capacity <= 0):
			return fmt.Errorf("%w: step %d boots instance %q with capacity %d (need a named type and positive capacity)",
				ErrInvalidPlan, i, s.Instance.Name, s.Capacity)
		case s.Op == dynamic.OpBootVM && len(s.Remove) > 0:
			return fmt.Errorf("%w: step %d boots slot %d and removes pairs from it", ErrInvalidPlan, i, s.VM)
		case s.Op == dynamic.OpRetireVM && len(s.Place) > 0:
			return fmt.Errorf("%w: step %d retires slot %d and places pairs on it", ErrInvalidPlan, i, s.VM)
		case s.Op == dynamic.OpReconfigure && len(s.Remove) == 0 && len(s.Place) == 0:
			return fmt.Errorf("%w: step %d reconfigures slot %d without removing or placing a pair", ErrInvalidPlan, i, s.VM)
		}
		for _, edits := range [2][]core.TopicPlacement{s.Remove, s.Place} {
			for _, e := range edits {
				if int(e.Topic) < 0 || int(e.Topic) >= numT {
					return fmt.Errorf("%w: step %d references topic %d of %d", ErrInvalidPlan, i, e.Topic, numT)
				}
				if len(e.Subs) == 0 {
					return fmt.Errorf("%w: step %d has no subscribers for topic %d", ErrInvalidPlan, i, e.Topic)
				}
				list++
				for _, v := range e.Subs {
					if int(v) < 0 || int(v) >= numV {
						return fmt.Errorf("%w: step %d references subscriber %d of %d", ErrInvalidPlan, i, v, numV)
					}
					if lastList[v] == list {
						return fmt.Errorf("%w: step %d lists subscriber %d twice for topic %d", ErrInvalidPlan, i, v, e.Topic)
					}
					lastList[v] = list
				}
			}
		}
	}
	return nil
}

// NewPlan assembles the plan that moves a cluster from current to target
// without running a solver: the workload delta, the position-based
// migration stats, the executable step sequence, and the cost forecast
// under cfg.Model are all derived from the two states. It is the
// constructor the elastic controller uses once its policy has already
// chosen the target allocation; the mcss Planner's Plan wraps a solve
// around it. A nil current plans from the empty cluster. A state whose placements fail
// core.CheckPlacements is refused with ErrInvalidPlan before anything is
// diffed.
func NewPlan(cfg core.Config, current, target *State) (*Plan, error) {
	if current == nil {
		current = EmptyState()
	}
	if target == nil || target.Workload == nil || target.Allocation == nil {
		return nil, fmt.Errorf("%w: missing target state", ErrInvalidPlan)
	}
	if err := core.CheckPlacements(current.Workload, current.Allocation); err != nil {
		return nil, fmt.Errorf("%w: current %v", ErrInvalidPlan, err)
	}
	if err := core.CheckPlacements(target.Workload, target.Allocation); err != nil {
		return nil, fmt.Errorf("%w: target %v", ErrInvalidPlan, err)
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = core.DefaultMessageBytes
	}
	delta, err := dynamic.DeltaBetween(current.Workload, target.Workload)
	if err != nil {
		return nil, err
	}
	stats := dynamic.MigrationStatsBetween(current.Allocation, target.Allocation, cfg.Model)
	plan := &Plan{
		Version:         PlanVersion,
		BaseFingerprint: current.Fingerprint(),
		Tau:             cfg.Tau,
		MessageBytes:    cfg.MessageBytes,
		Model:           cfg.Model,
		Fleet:           cfg.EffectiveFleet(),
		Diff:            Diff{Delta: delta, Stats: stats},
		CostBefore:      stats.CostBefore,
		CostAfter:       stats.CostAfter,
		Steps:           dynamic.StepsBetween(current.Allocation, target.Allocation),
		Target:          target,
		statsFrom:       &statsOrigin{base: current.Allocation, target: target.Allocation, model: cfg.Model, stats: stats},
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// Snapshot returns the zero-step plan whose base and target are both the
// given state — the self-describing "this is the cluster now" document the
// CLI persists between plan and apply. Applying a snapshot is a no-op.
func Snapshot(cfg core.Config, s *State) (*Plan, error) {
	if s == nil {
		s = EmptyState()
	}
	return NewPlan(cfg, s, s)
}
