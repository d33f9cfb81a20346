// Package elastic is the autoscaling control plane above the MCSS solver:
// a Controller walks a timeline of workload snapshots, re-solves each epoch
// through a dynamic.Provisioner (delta → fleet-aware solve → migration
// stats), and applies a hysteresis policy that trades rental cost against
// migration churn — scale up immediately when the kept allocation can no
// longer serve the epoch, scale down only after a cooldown, and keep the
// previous placements outright when the fresh solve would migrate more
// pairs than the per-epoch budget allows. Every acquisition, release, and
// byte of transfer lands in a BillingLedger that charges per started
// instance-hour, the granularity at which EC2-style billing actually
// punishes fleet churn.
//
// Three policies span the evaluation space: OraclePolicy re-solves and
// right-sizes every epoch (per-epoch clairvoyance), DefaultPolicy is the
// hysteresis controller, and StaticPeakReport derives the
// provision-for-peak-all-day baseline from an oracle run. The diurnal
// experiment (cmd/experiments -fig diurnal) compares all three.
package elastic

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Policy is the hysteresis knob set.
type Policy struct {
	// ScaleUpUtilization forces adoption of the fresh solve when the kept
	// allocation's bandwidth utilization (Σ bw / Σ capacity over active
	// VMs) exceeds it — the headroom guard that scales up *before* the
	// next epoch overflows. Zero means any utilization triggers adoption
	// (no hysteresis; the oracle setting).
	ScaleUpUtilization float64
	// ScaleDownCooldownEpochs is how many epochs must pass after the last
	// acquisition before surplus VMs are released. Holding through short
	// troughs avoids paying fresh started hours on the rebound.
	ScaleDownCooldownEpochs int
	// ScaleDownSavingsFrac is the minimum fractional hourly-rental saving
	// (surplus rental / billed rental) before surplus VMs are released;
	// releasing one small VM out of a large fleet is not worth the churn
	// risk of the rebound.
	ScaleDownSavingsFrac float64
	// MaxMigrationsPerEpoch caps pair moves per epoch: when the fresh
	// solve would move more pairs and the kept allocation still serves
	// the epoch, the controller keeps the previous placements. Zero means
	// unlimited.
	MaxMigrationsPerEpoch int64
	// HeadroomFrac is the fraction of every VM's capacity the fresh
	// solves leave free: packing runs against capacity × (1−headroom)
	// while kept allocations are validated against the full capacity, so
	// epoch-to-epoch rate drift (diurnal jitter) does not immediately
	// invalidate a kept allocation. Zero packs to the brim (the oracle
	// setting — with no keep path, headroom is pure waste).
	HeadroomFrac float64
	// Incremental switches the per-epoch fresh candidate from a full
	// re-solve to Provisioner.PreviewIncremental: the persistent index
	// absorbs the epoch delta in churn-proportional time, falling back to
	// a full solve only when the measured regret versus the maintained
	// lower bound drifts past IncrementalMaxRegret (≤ 0 means the
	// incremental default of 2%).
	Incremental          bool
	IncrementalMaxRegret float64
}

// DefaultPolicy returns the hysteresis controller setting used by the
// diurnal experiments: scale up above 92% (true-capacity) utilization,
// release surplus only after two calm epochs and only when it saves ≥2% of
// the hourly rental, unlimited migrations, 15% packing headroom.
func DefaultPolicy() Policy {
	return Policy{
		ScaleUpUtilization:      0.92,
		ScaleDownCooldownEpochs: 2,
		ScaleDownSavingsFrac:    0.02,
		HeadroomFrac:            0.15,
	}
}

// OraclePolicy returns the per-epoch clairvoyant setting: always adopt the
// fresh solve and right-size the fleet immediately.
func OraclePolicy() Policy { return Policy{} }

// FleetSchedule supplies per-epoch fleets to a controller walk — the hook
// a spot market plugs in (spot.Schedule implements it). FleetAt returns
// the decision fleet the epoch's solves pack against (risk-adjusted spot
// rates) and the billing fleet whose rates the ledger charges at acquire
// time (raw epoch spot prices). A schedule that returns an unchanged
// decision fleet (compare with the previous epoch's) costs nothing; a
// changed one is a price epoch — the walk swaps the provisioner's fleet,
// reprices the held allocation, and lets the normal keep-vs-adopt policy
// decide whether the price delta alone justifies a migration plan.
type FleetSchedule interface {
	FleetAt(epoch int) (decision, billing pricing.Fleet, err error)
}

// ChaosInjector decides which VMs the provider reclaims each epoch —
// implemented by spot.Chaos. FailureGroups is drawn against the
// allocation adopted for the epoch and returns VM IDs grouped by
// correlated failure domain (availability zone); the walk repairs the
// union atomically through the provisioner's group crash repair and bills
// the reclamations and replacements through the ledger.
type ChaosInjector interface {
	FailureGroups(epoch int, alloc *core.Allocation) [][]int
}

// EpochReport records one epoch's control decision and its accounting.
type EpochReport struct {
	// Epoch index and start, echoing the timeline.
	Epoch       int
	StartMinute int64
	// Adopted reports whether the fresh solve's placements were installed
	// (false = previous placements kept).
	Adopted bool
	// Forced reports that adoption was mandatory: the kept allocation no
	// longer satisfied the epoch or breached the utilization guard.
	Forced bool
	// AcquiredVMs and ReleasedVMs are this epoch's fleet deltas.
	AcquiredVMs, ReleasedVMs int
	// ActiveVMs serve placements; BilledVMs includes surplus VMs held by
	// the cooldown.
	ActiveVMs, BilledVMs int
	// PairsMoved is the churn actually incurred; CandidateMoves is what
	// adopting the fresh solve would have cost (equal when adopted).
	PairsMoved, CandidateMoves int64
	// AddedPairs counts pairs the keep path topped the allocation up with
	// (zero when the fresh solve was adopted).
	AddedPairs int64
	// TransferBytes is the epoch's billed transfer volume.
	TransferBytes int64
	// EgressBytes and EgressCost are the epoch's billed cross-region
	// transfer under the config's Topology; zero without one (the paper's
	// single-region setting).
	EgressBytes int64
	EgressCost  pricing.MicroUSD
	// Utilization is the adopted allocation's bandwidth utilization.
	Utilization float64
	// ActiveMix counts active VMs per instance-type name.
	ActiveMix map[string]int
	// Duration is the wall time the epoch took end to end (solve/preview,
	// policy decision, plan apply, ledger accounting).
	Duration time.Duration
	// CandidateStats is the migration-stats record of the epoch's fresh
	// candidate (zero for epoch 0's bootstrap solve): churn, cost deltas,
	// incremental repair-pass telemetry, and the fallback flag — what the
	// observability layer reads regardless of whether the candidate was
	// adopted.
	CandidateStats dynamic.MigrationStats
	// Plan is the deployment plan this epoch's decision was enacted
	// through: every autoscale event is the same serializable,
	// fingerprint-pinned artifact the Spec → Plan → Apply lifecycle
	// produces, so a controller run can be audited or replayed step by
	// step (persist one with traceio.SavePlan).
	Plan *deploy.Plan

	// Spot-market fields, zero without a FleetSchedule/ChaosInjector.
	//
	// Repriced reports that the schedule's decision fleet changed this
	// epoch (a price epoch): the provisioner was repointed at the new
	// rates before the epoch's preview, so a price delta alone can force
	// a re-solve/migration even when the workload is unchanged.
	Repriced bool
	// ReclaimGroups counts the epoch's correlated failure groups and
	// ReclaimedVMs the spot VMs taken across them; RepairedPairs were
	// re-homed and RepairNewVMs deployed by the group repair.
	ReclaimGroups, ReclaimedVMs int
	RepairedPairs               int64
	RepairNewVMs                int
	// LostPairMinutes models the delivery gap: each pair on a reclaimed
	// VM loses the controller's repair lag (delivery minutes, summed over
	// pairs) before its replacement serves it.
	LostPairMinutes int64
}

// RunReport is a full controller run: per-epoch decisions, the per-epoch
// allocations (for simulation replay), and the ledger holding the bill.
type RunReport struct {
	Strategy     string
	EpochMinutes int64
	Fleet        pricing.Fleet
	Epochs       []EpochReport
	// Allocations[e] is the allocation serving epoch e.
	Allocations []*core.Allocation
	Ledger      *BillingLedger
}

// RentalCost, TransferCost, EgressCost, and TotalCost report the run's
// bill.
func (r *RunReport) RentalCost() pricing.MicroUSD   { return r.Ledger.RentalCost() }
func (r *RunReport) TransferCost() pricing.MicroUSD { return r.Ledger.TransferCost() }
func (r *RunReport) EgressCost() pricing.MicroUSD   { return r.Ledger.EgressCost() }
func (r *RunReport) TotalCost() pricing.MicroUSD    { return r.Ledger.TotalCost() }

// TotalMoved sums the churn actually incurred across epochs.
func (r *RunReport) TotalMoved() int64 {
	var sum int64
	for _, e := range r.Epochs {
		sum += e.PairsMoved
	}
	return sum
}

// MaxBilledVMs reports the largest billed fleet of any epoch.
func (r *RunReport) MaxBilledVMs() int {
	max := 0
	for _, e := range r.Epochs {
		if e.BilledVMs > max {
			max = e.BilledVMs
		}
	}
	return max
}

// Controller walks a timeline under one solver configuration and policy.
// It is not safe for concurrent use.
type Controller struct {
	cfg    core.Config
	policy Policy

	// schedule, when set, reprices the fleet per epoch (spot markets);
	// chaos, when set, injects reclamations after each epoch's adoption.
	schedule FleetSchedule
	chaos    ChaosInjector
	// repairLagMinutes is the modeled delivery gap per reclaimed pair
	// (see EpochReport.LostPairMinutes); SetChaos defaults it to 5.
	repairLagMinutes int64

	// applyHook supplies extra deploy.Apply options per epoch — the seam
	// allocatord uses to journal every epoch's plan application and run
	// steps through a retrying executor.
	applyHook func(epoch int) []deploy.ApplyOption
}

// SetApplyHook attaches a per-epoch Apply option supplier (journal,
// executor, epoch tag). Call before Start/Run.
func (c *Controller) SetApplyHook(h func(epoch int) []deploy.ApplyOption) { c.applyHook = h }

// SetFleetSchedule attaches a per-epoch fleet schedule (price timeline).
// Call before Start/Run.
func (c *Controller) SetFleetSchedule(s FleetSchedule) { c.schedule = s }

// SetChaos attaches a reclamation injector; lagMinutes is the modeled
// per-pair delivery gap of a reclamation (≤ 0 defaults to 5). Call before
// Start/Run.
func (c *Controller) SetChaos(ch ChaosInjector, lagMinutes int64) {
	c.chaos = ch
	if lagMinutes <= 0 {
		lagMinutes = 5
	}
	c.repairLagMinutes = lagMinutes
}

// NewController builds a controller. The config's Fleet (or single-type
// model) is what every epoch's re-solve packs against.
func NewController(cfg core.Config, policy Policy) *Controller {
	return &Controller{cfg: cfg, policy: policy}
}

// Run walks the timeline epoch by epoch and returns the full report. Epoch
// 0 is always a fresh solve; each later epoch previews the fresh solve via
// the provisioner's delta machinery and then lets the policy choose between
// adopting it and keeping the repriced previous placements.
//
// Every adoption — epoch 0's bootstrap included — is enacted through the
// deploy lifecycle: the controller builds a Plan from the provisioner's
// current state to the chosen target and Applies it, so each epoch's
// decision is a serializable, fingerprint-verified artifact (recorded in
// EpochReport.Plan) rather than an opaque in-memory mutation.
//
// The context is threaded into every per-epoch solve (polled at bounded
// intervals inside the solver hot loops) and additionally checked between
// epochs, so a controller loop that re-solves for minutes can be cancelled
// or deadlined promptly; on cancellation Run returns ctx.Err() and the
// partial report is discarded. The config's Observer, when set, receives
// an OnEpoch callback after each completed epoch (on top of the per-solve
// stage callbacks).
func (c *Controller) Run(ctx context.Context, tl *timeline.Timeline) (*RunReport, error) {
	wk, err := c.Start(ctx, tl)
	if err != nil {
		return nil, err
	}
	for !wk.Done() {
		if _, err := wk.Step(ctx); err != nil {
			return nil, err
		}
	}
	return wk.Finish()
}

// Walk is an in-flight controller run, stepped one epoch at a time — the
// shape a long-running process needs: allocatord replays a timeline on a
// wall-clock cadence, inspecting the live state between epochs, where Run
// drives the same walk to completion in one call. Build with
// Controller.Start; not safe for concurrent use (serve reads of the state
// it exposes from one goroutine, or copy what Step returns).
type Walk struct {
	c        *Controller
	tl       *timeline.Timeline
	fleet    pricing.Fleet
	solveCfg core.Config
	prov     *dynamic.Provisioner
	obs      core.Observer
	ledger   *BillingLedger
	report   *RunReport

	// held[name] is the billed VM count per type (≥ the active count);
	// lastAcquire[name] is the most recent epoch that acquired the type
	// (the scale-down cooldown is per type, so mix churn in one size
	// cannot starve releases of another).
	held        map[string]int
	lastAcquire map[string]int
	next        int

	// billing is the fleet whose rates acquisitions are billed at — the
	// schedule's raw-spot-price fleet when one is attached, otherwise the
	// decision fleet itself. Rentals charge their acquire-time rate for
	// their whole life (acquisition-price billing; see DESIGN.md §13).
	billing pricing.Fleet
}

// Start validates the timeline and builds the walk's provisioner, ledger,
// and report. No epoch work happens until Step.
func (c *Controller) Start(ctx context.Context, tl *timeline.Timeline) (*Walk, error) {
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	fleet := c.cfg.EffectiveFleet()
	report := &RunReport{
		Strategy:     "hysteresis",
		EpochMinutes: tl.EpochMinutes,
		Fleet:        fleet,
	}
	if c.policy == (Policy{}) {
		report.Strategy = "oracle"
	}
	ledger := NewLedger(c.cfg.Model.PerGB)
	report.Ledger = ledger

	solveCfg := c.packingConfig(c.cfg.Fleet)
	prov, err := c.provisioner(deploy.EmptyState(), solveCfg)
	if err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	return &Walk{
		c:           c,
		tl:          tl,
		fleet:       fleet,
		solveCfg:    solveCfg,
		prov:        prov,
		obs:         core.ResolveObserver(ctx, c.cfg),
		ledger:      ledger,
		report:      report,
		held:        make(map[string]int, fleet.Len()),
		lastAcquire: make(map[string]int, fleet.Len()),
		billing:     fleet,
	}, nil
}

// StartAt builds a walk that resumes a timeline mid-way: st is the
// journal-recovered state (the allocation epoch next-1 left behind) and
// next is the first epoch still to run. The walk's provisioner is
// restored from st and the recovered fleet is acquired in the ledger at
// the resume minute — billing restarts honestly from the crash, it does
// not back-date the pre-crash rentals (the ledger died with the process).
// A nil st or next == 0 is a plain Start.
func (c *Controller) StartAt(ctx context.Context, tl *timeline.Timeline, st *deploy.State, next int) (*Walk, error) {
	wk, err := c.Start(ctx, tl)
	if err != nil {
		return nil, err
	}
	if st == nil || next <= 0 {
		return wk, nil
	}
	if next > tl.NumEpochs() {
		return nil, fmt.Errorf("elastic: resume epoch %d past timeline's %d epochs", next, tl.NumEpochs())
	}
	prov, err := c.provisioner(st, wk.solveCfg)
	if err != nil {
		return nil, fmt.Errorf("elastic: resume: %w", err)
	}
	wk.prov = prov
	wk.next = next
	if next < tl.NumEpochs() {
		if c.schedule != nil {
			// The recovered fleet may hold spot variants, which only the
			// schedule's fleets list: bill at the resume epoch's rates.
			if _, wk.billing, err = c.schedule.FleetAt(next); err != nil {
				return nil, fmt.Errorf("elastic: resume epoch %d: fleet schedule: %w", next, err)
			}
		}
		now := tl.StartMinute(next)
		for name, n := range st.Allocation.InstanceMix() {
			it, ok := instanceByName(wk.billing, name)
			if !ok {
				return nil, fmt.Errorf("elastic: resumed state holds unknown instance type %q", name)
			}
			if err := wk.ledger.Acquire(it, n, now); err != nil {
				return nil, err
			}
			wk.held[name] = n
			wk.lastAcquire[name] = next
		}
	}
	return wk, nil
}

// ResumeRecovery builds a walk from a journal recovery: an in-flight
// plan (a crash mid-apply) is finished first — through the apply hook,
// resuming at the first step whose effect is not journaled, so effects
// land exactly once — and the walk continues at the next epoch. A clean
// recovery just resumes after its last durable epoch.
func (c *Controller) ResumeRecovery(ctx context.Context, tl *timeline.Timeline, rec *deploy.Recovery) (*Walk, error) {
	st, next := rec.State, int(rec.Epoch)+1
	if rec.InFlight != nil {
		prov, err := c.provisioner(st, c.packingConfig(c.cfg.Fleet))
		if err != nil {
			return nil, fmt.Errorf("elastic: resume: %w", err)
		}
		epoch := int(rec.InFlightEpoch)
		var opts []deploy.ApplyOption
		if c.applyHook != nil {
			opts = c.applyHook(epoch)
		}
		opts = append(opts, deploy.ResumeFrom(rec.NextStep))
		if _, err := deploy.Apply(ctx, rec.InFlight, prov, opts...); err != nil {
			return nil, fmt.Errorf("elastic: resume apply (epoch %d): %w", epoch, err)
		}
		st = deploy.StateOf(prov)
		next = epoch + 1
	}
	return c.StartAt(ctx, tl, st, next)
}

// packingConfig is the config the walk's fresh solves pack under for the
// decision fleet f: the controller's config on f, derated by the policy's
// packing headroom. Kept allocations are validated against the un-derated
// fleet instead, so epoch-to-epoch rate drift does not immediately
// invalidate them.
func (c *Controller) packingConfig(f pricing.Fleet) core.Config {
	cfg := c.cfg
	cfg.Fleet = f
	if h := c.policy.HeadroomFrac; h > 0 && h < 1 {
		cfg.Fleet = cfg.EffectiveFleet().WithCapacityScale(1 - h)
	}
	return cfg
}

// provisioner restores st under the packing config with the policy's
// incremental settings.
func (c *Controller) provisioner(st *deploy.State, solveCfg core.Config) (*dynamic.Provisioner, error) {
	prov, err := st.Provisioner(solveCfg)
	if err != nil {
		return nil, err
	}
	if c.policy.Incremental {
		prov.SetIncrementalPolicy(dynamic.IncrementalPolicy{MaxRegretFrac: c.policy.IncrementalMaxRegret})
	}
	return prov, nil
}

// refreshFleet pulls epoch e's fleets from the schedule (when one is
// attached) and, on a decision-fleet change, repoints the walk: the solve
// config packs against the repriced (headroom-derated) fleet, the
// provisioner drops its incremental index, and the provisioner adopts a
// copy of the held allocation with its VM instances repriced by name, so
// the keep-vs-adopt cost comparison sees current rates. The held
// allocation itself is the last epoch's reported allocation and plan
// target, fingerprinted by the journal's last commit, so it must not
// change; the epoch's apply journals the repriced copy as its base.
// Returns whether this is a price epoch.
func (wk *Walk) refreshFleet(e int) (bool, error) {
	if wk.c.schedule == nil {
		return false, nil
	}
	decision, billing, err := wk.c.schedule.FleetAt(e)
	if err != nil {
		return false, fmt.Errorf("elastic: epoch %d: fleet schedule: %w", e, err)
	}
	wk.billing = billing
	if fleetsEqual(wk.fleet, decision) {
		return false, nil
	}
	wk.fleet = decision
	wk.report.Fleet = decision
	wk.solveCfg = wk.c.packingConfig(decision)
	wk.prov.SetFleet(wk.solveCfg.Fleet)
	if held := wk.prov.Allocation(); held != nil {
		if repriced := repriceAllocation(held, decision); repriced != held {
			wk.prov.Adopt(wk.prov.Workload(), &core.Result{Selection: wk.prov.Selection(), Allocation: repriced})
		}
	}
	return true, nil
}

// repriceAllocation returns alloc with each VM's instance rate set to the
// fleet's current rate for its type name (capacities are untouched — they
// identify the packing, not the price): a new allocation whose repriced
// VMs are copies sharing their placements, or alloc itself when no rate
// changed. alloc is not modified.
func repriceAllocation(alloc *core.Allocation, fleet pricing.Fleet) *core.Allocation {
	var out *core.Allocation
	for i, vm := range alloc.VMs {
		it, ok := instanceByName(fleet, vm.Instance.Name)
		if !ok || it.HourlyRate == vm.Instance.HourlyRate {
			continue
		}
		if out == nil {
			out = &core.Allocation{VMs: slices.Clone(alloc.VMs), Fleet: alloc.Fleet, MessageBytes: alloc.MessageBytes}
		}
		c := *vm
		c.Instance.HourlyRate = it.HourlyRate
		out.VMs[i] = &c
	}
	if out == nil {
		return alloc
	}
	return out
}

// fleetsEqual reports identical types, rates, and capacities in order.
func fleetsEqual(a, b pricing.Fleet) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Type(i) != b.Type(i) || a.Capacity(i) != b.Capacity(i) {
			return false
		}
	}
	return true
}

// Done reports whether every epoch has been stepped.
func (wk *Walk) Done() bool { return wk.next >= wk.tl.NumEpochs() }

// NumEpochs reports the timeline length.
func (wk *Walk) NumEpochs() int { return wk.tl.NumEpochs() }

// Allocation returns the allocation serving the last stepped epoch (nil
// before the first Step). Live state — read between Steps, don't mutate.
func (wk *Walk) Allocation() *core.Allocation {
	if n := len(wk.report.Allocations); n > 0 {
		return wk.report.Allocations[n-1]
	}
	if wk.next > 0 {
		// A resumed walk before its first step serves the recovered
		// allocation.
		return wk.prov.Allocation()
	}
	return nil
}

// Workload returns the workload of the last stepped epoch (nil before the
// first Step).
func (wk *Walk) Workload() *workload.Workload {
	if wk.next == 0 {
		return nil
	}
	return wk.prov.Workload()
}

// NextEpoch reports the epoch the next Step will run (equal to NumEpochs
// once the walk is done).
func (wk *Walk) NextEpoch() int { return wk.next }

// Ledger exposes the walk's live billing ledger.
func (wk *Walk) Ledger() *BillingLedger { return wk.ledger }

// Finish closes the ledger over the timeline horizon and returns the
// report. Call once, after Done (finishing early leaves the remaining
// epochs unwalked but still bills open rentals to the full horizon).
func (wk *Walk) Finish() (*RunReport, error) {
	if err := wk.ledger.Close(wk.tl.HorizonMinutes()); err != nil {
		return nil, err
	}
	return wk.report, nil
}

// Step processes the next epoch — preview, policy decision, plan-mediated
// adoption, ledger accounting — and returns its report entry.
func (wk *Walk) Step(ctx context.Context) (EpochReport, error) {
	c := wk.c
	if wk.Done() {
		return EpochReport{}, fmt.Errorf("elastic: walk already finished all %d epochs", wk.tl.NumEpochs())
	}
	if err := ctx.Err(); err != nil {
		return EpochReport{}, err
	}
	e := wk.next
	epochStart := time.Now()
	repriced, err := wk.refreshFleet(e)
	if err != nil {
		return EpochReport{}, err
	}
	tl, fleet, solveCfg, prov, ledger := wk.tl, wk.fleet, wk.solveCfg, wk.prov, wk.ledger
	w := tl.Epochs[e]
	now := tl.StartMinute(e)
	ep := EpochReport{Epoch: e, StartMinute: now, Repriced: repriced}

	// Decide the epoch's target: the fresh solve, or the kept
	// (repriced, topped-up) previous placements.
	var target *core.Allocation
	if e == 0 {
		res, err := core.SolveContext(ctx, w, solveCfg)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return EpochReport{}, cerr
			}
			return EpochReport{}, fmt.Errorf("elastic: epoch 0: %w", err)
		}
		target = res.Allocation
		ep.Adopted, ep.Forced = true, true
		ep.PairsMoved = countPairs(target)
		ep.CandidateMoves = ep.PairsMoved
	} else {
		delta, err := dynamic.DeltaBetween(prov.Workload(), w)
		if err != nil {
			return EpochReport{}, fmt.Errorf("elastic: epoch %d: %w", e, err)
		}
		// Preview validates the delta before solving. Incremental
		// mode updates the persistent index in churn-proportional
		// time instead of re-solving the whole workload.
		preview := prov.PreviewContext
		if c.policy.Incremental {
			preview = prov.PreviewIncremental
		}
		_, fresh, stats, err := preview(ctx, delta)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return EpochReport{}, cerr
			}
			return EpochReport{}, fmt.Errorf("elastic: epoch %d: %w", e, err)
		}
		ep.CandidateMoves = stats.PairsMoved
		ep.CandidateStats = stats

		// The low-churn alternative: previous placements repriced
		// under the new snapshot, topped up where falling rates left
		// subscribers under-served. The oracle setting (zero
		// utilization guard) never keeps, so skip the work.
		var kept *core.Allocation
		var added int64
		keptOK := false
		if c.policy.ScaleUpUtilization > 0 {
			kept, added, keptOK = keepWithTopUp(prov.Allocation(), w, c.cfg, solveCfg.EffectiveFleet(), fleet)
		}
		forced := !keptOK || utilization(kept, fleet) > c.policy.ScaleUpUtilization

		switch {
		case forced:
			ep.Adopted, ep.Forced = true, true
		case c.policy.MaxMigrationsPerEpoch > 0 && stats.PairsMoved > c.policy.MaxMigrationsPerEpoch:
			// Over the churn budget: keep the verified placements.
		default:
			// Adopt only when the fresh solve clears the savings bar
			// for this epoch (hourly rental + transfer): marginal
			// wins are not worth re-homing pairs and thrashing the
			// instance mix.
			freshCost := hourlyCost(c.cfg.Model, fresh.Allocation)
			keptCost := hourlyCost(c.cfg.Model, kept)
			ep.Adopted = float64(freshCost) < (1-c.policy.ScaleDownSavingsFrac)*float64(keptCost)
		}

		if ep.Adopted {
			target = fresh.Allocation
			ep.PairsMoved = stats.PairsMoved
		} else {
			target = kept
			ep.AddedPairs = added
		}
	}

	// Enact the decision through a plan.
	planCfg := c.cfg
	planCfg.Fleet = fleet // record the epoch's (possibly repriced) fleet
	plan, err := deploy.NewPlan(planCfg, deploy.StateOf(prov), deploy.NewState(w, target))
	if err != nil {
		return EpochReport{}, fmt.Errorf("elastic: epoch %d: plan: %w", e, err)
	}
	var applyOpts []deploy.ApplyOption
	if c.applyHook != nil {
		applyOpts = c.applyHook(e)
	}
	if _, err := deploy.Apply(ctx, plan, prov, applyOpts...); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return EpochReport{}, cerr
		}
		return EpochReport{}, fmt.Errorf("elastic: epoch %d: apply: %w", e, err)
	}
	ep.Plan = plan
	// The report references the plan's own target allocation
	// (fingerprint-verified identical to the adopted replay), so retaining
	// plans in the report does not hold a second full cluster copy per
	// epoch alive.
	adopted := plan.Target.Allocation

	// Fleet accounting: acquire shortfalls immediately (correctness),
	// release surplus only past the cooldown and the savings bar.
	// Acquisitions bill at the billing fleet's current rate (raw spot
	// price under a schedule); releases only need the type name.
	acquireShortfall := func(active map[string]int) error {
		for name, n := range active {
			if short := n - wk.held[name]; short > 0 {
				it, ok := instanceByName(wk.billing, name)
				if !ok {
					return fmt.Errorf("elastic: epoch %d deploys unknown instance type %q", e, name)
				}
				if err := ledger.Acquire(it, short, now); err != nil {
					return err
				}
				wk.held[name] += short
				ep.AcquiredVMs += short
				wk.lastAcquire[name] = e
			}
		}
		return nil
	}
	active := adopted.InstanceMix()
	if err := acquireShortfall(active); err != nil {
		return EpochReport{}, err
	}
	for name, surplus := range c.releasable(e, wk.lastAcquire, fleet, wk.held, active) {
		it, ok := instanceByName(wk.billing, name)
		if !ok {
			it, _ = instanceByName(fleet, name)
		}
		if err := ledger.Release(it, surplus, now); err != nil {
			return EpochReport{}, err
		}
		wk.held[name] -= surplus
		ep.ReleasedVMs += surplus
	}

	// Chaos: the provider reclaims spot VMs from the allocation that just
	// started serving the epoch. The reclaimed rentals end (their started
	// hours stay billed), the union of the failure groups is repaired
	// atomically through the provisioner, and the replacements open fresh
	// rentals in the same minute — both started hours bill, which is the
	// per-started-hour churn cost the risk-adjusted rates model.
	if c.chaos != nil {
		groups := c.chaos.FailureGroups(e, adopted)
		if len(groups) > 0 {
			ep.ReclaimGroups = len(groups)
			byID := make(map[int]*core.VM, len(adopted.VMs))
			for _, vm := range adopted.VMs {
				byID[vm.ID] = vm
			}
			var union []int
			reclaimMix := make(map[string]int)
			for _, g := range groups {
				for _, id := range g {
					vm, ok := byID[id]
					if !ok {
						return EpochReport{}, fmt.Errorf("elastic: epoch %d: chaos reclaims unknown VM %d", e, id)
					}
					union = append(union, id)
					reclaimMix[vm.Instance.Name]++
					ep.LostPairMinutes += int64(vm.NumPairs()) * c.repairLagMinutes
				}
			}
			ep.ReclaimedVMs = len(union)
			for name, n := range reclaimMix {
				it, ok := instanceByName(wk.billing, name)
				if !ok {
					return EpochReport{}, fmt.Errorf("elastic: epoch %d reclaims unknown instance type %q", e, name)
				}
				if err := ledger.Reclaim(it, n, now); err != nil {
					return EpochReport{}, err
				}
				wk.held[name] -= n
			}
			rstats, err := prov.RepairCrashGroupContext(ctx, union)
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return EpochReport{}, cerr
				}
				return EpochReport{}, fmt.Errorf("elastic: epoch %d: repair: %w", e, err)
			}
			ep.RepairedPairs = rstats.PairsRehomed
			ep.RepairNewVMs = rstats.NewVMs
			if c.applyHook != nil {
				// The repair installed a state outside any plan. Apply it
				// as a snapshot, which checkpoints it in the journal, so
				// a recovery after this step reproduces it.
				snap, err := deploy.Snapshot(planCfg, deploy.StateOf(prov))
				if err == nil {
					_, err = deploy.Apply(ctx, snap, prov, c.applyHook(e)...)
				}
				if err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return EpochReport{}, cerr
					}
					return EpochReport{}, fmt.Errorf("elastic: epoch %d: journal repair: %w", e, err)
				}
			}
			adopted = prov.Allocation()
			active = adopted.InstanceMix()
			if err := acquireShortfall(active); err != nil {
				return EpochReport{}, err
			}
		}
	}

	ep.ActiveVMs = adopted.NumVMs()
	for _, n := range wk.held {
		ep.BilledVMs += n
	}
	ep.Utilization = utilization(adopted, fleet)
	ep.ActiveMix = active
	ep.TransferBytes = adopted.TotalBytesPerHour() * tl.EpochMinutes / 60
	if topo := c.cfg.Topology; topo != nil {
		// Scale the hourly egress flow to the epoch duration; the cost
		// scales the already-priced hourly figure, exact for whole-hour
		// epochs.
		mb := adopted.MessageBytes
		if mb == 0 {
			mb = c.cfg.MessageBytes
		}
		hb, hc, err := core.EgressPerHour(topo, w, adopted, mb)
		if err != nil {
			return EpochReport{}, fmt.Errorf("elastic: epoch %d: egress: %w", e, err)
		}
		ep.EgressBytes = hb * tl.EpochMinutes / 60
		ep.EgressCost = pricing.MicroUSD(int64(hc.Mul(tl.EpochMinutes)) / 60)
		ledger.AddEgress(ep.EgressBytes, ep.EgressCost)
	}
	ledger.AddTransfer(ep.TransferBytes)
	ep.Duration = time.Since(epochStart)

	wk.report.Epochs = append(wk.report.Epochs, ep)
	wk.report.Allocations = append(wk.report.Allocations, adopted)
	wk.next++
	if wk.obs != nil {
		wk.obs.OnEpoch(e, tl.NumEpochs())
	}
	return ep, nil
}

// releasable applies the scale-down half of the policy and returns the
// per-type surplus counts to release this epoch: types past their own
// acquisition cooldown, and only when the combined rental saving clears
// the savings bar.
func (c *Controller) releasable(epoch int, lastAcquire map[string]int, fleet pricing.Fleet, held, active map[string]int) map[string]int {
	out := make(map[string]int)
	var surplusRental, heldRental pricing.MicroUSD
	for name, n := range held {
		it, ok := instanceByName(fleet, name)
		if !ok {
			continue
		}
		heldRental = heldRental.Add(it.HourlyRate.Mul(int64(n)))
		s := n - active[name]
		if s <= 0 {
			continue
		}
		if c.policy.ScaleDownCooldownEpochs > 0 && epoch-lastAcquire[name] <= c.policy.ScaleDownCooldownEpochs {
			continue
		}
		out[name] = s
		surplusRental = surplusRental.Add(it.HourlyRate.Mul(int64(s)))
	}
	if surplusRental == 0 ||
		(heldRental > 0 && float64(surplusRental) < c.policy.ScaleDownSavingsFrac*float64(heldRental)) {
		return nil
	}
	return out
}

// StaticPeakReport derives the provision-for-peak baseline from an oracle
// run over the same timeline: the billed fleet is the per-type maximum over
// every epoch's right-sized fleet, held for the whole horizon, while each
// epoch is served by its own oracle placements (so satisfaction is
// identical — only the billing differs).
func StaticPeakReport(tl *timeline.Timeline, oracle *RunReport) (*RunReport, error) {
	if len(oracle.Epochs) != tl.NumEpochs() {
		return nil, fmt.Errorf("elastic: oracle run covers %d epochs, timeline has %d",
			len(oracle.Epochs), tl.NumEpochs())
	}
	peak := make(map[string]int)
	for _, ep := range oracle.Epochs {
		for name, n := range ep.ActiveMix {
			if n > peak[name] {
				peak[name] = n
			}
		}
	}
	ledger := NewLedger(oracle.Ledger.perGB)
	report := &RunReport{
		Strategy:     "static-peak",
		EpochMinutes: tl.EpochMinutes,
		Fleet:        oracle.Fleet,
		Ledger:       ledger,
		Allocations:  oracle.Allocations,
	}
	billed := 0
	for name, n := range peak {
		it, ok := instanceByName(oracle.Fleet, name)
		if !ok {
			return nil, fmt.Errorf("elastic: oracle deployed unknown instance type %q", name)
		}
		if err := ledger.Acquire(it, n, 0); err != nil {
			return nil, err
		}
		billed += n
	}
	for _, ep := range oracle.Epochs {
		sp := ep
		sp.Adopted, sp.Forced = true, false
		sp.AcquiredVMs, sp.ReleasedVMs = 0, 0
		if ep.Epoch == 0 {
			sp.AcquiredVMs = billed
		}
		sp.BilledVMs = billed
		ledger.AddTransfer(ep.TransferBytes)
		ledger.AddEgress(ep.EgressBytes, ep.EgressCost)
		report.Epochs = append(report.Epochs, sp)
	}
	if err := ledger.Close(tl.HorizonMinutes()); err != nil {
		return nil, err
	}
	return report, nil
}

// utilization reports Σ bw / Σ true capacity over the allocation's VMs:
// recorded per-VM capacities may be headroom-derated, so each VM's bound is
// looked up in the true fleet by instance name.
func utilization(alloc *core.Allocation, trueFleet pricing.Fleet) float64 {
	var used, capacity int64
	for _, vm := range alloc.VMs {
		used += vm.BytesPerHour()
		capacity += trueCapacity(vm, trueFleet)
	}
	if capacity == 0 {
		return 0
	}
	return float64(used) / float64(capacity)
}

// trueCapacity resolves a VM's un-derated capacity bound: the true fleet's
// capacity for its type, falling back to the recorded value.
func trueCapacity(vm *core.VM, trueFleet pricing.Fleet) int64 {
	if c := trueFleet.CapacityOf(vm.Instance.Name); c > 0 {
		return c
	}
	return vm.CapacityBytesPerHour
}

// hourlyCost is the epoch-rate objective the keep-vs-adopt decision
// compares: active rental per hour plus transfer cost per hour.
func hourlyCost(m pricing.Model, alloc *core.Allocation) pricing.MicroUSD {
	return alloc.HourlyRentalRate(m).Add(pricing.BandwidthCost(m.PerGB, alloc.TotalBytesPerHour()))
}

func countPairs(alloc *core.Allocation) int64 {
	var n int64
	for _, vm := range alloc.VMs {
		n += int64(vm.NumPairs())
	}
	return n
}

func instanceByName(f pricing.Fleet, name string) (pricing.InstanceType, bool) {
	if i := f.IndexByName(name); i >= 0 {
		return f.Type(i), true
	}
	return pricing.InstanceType{}, false
}
