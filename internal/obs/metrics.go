package obs

import (
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// Metrics is the canonical mcss_* metric set over one Registry: the solver
// stages feed it through the core.Observer/StatsObserver it exposes, and
// the controller/daemon layers push migration stats, epoch reports, and
// ledger totals through the Record* hooks. Everything is safe for
// concurrent use (the registry is), so one Metrics can absorb parallel
// portfolio branches and a serving HTTP handler at once. The full family
// taxonomy is documented in DESIGN.md §12.
type Metrics struct {
	Registry *Registry

	// Solver stages (labeled by the core.Stage* names).
	stageDuration HistogramVec // mcss_solve_stage_duration_seconds
	stageUnits    CounterVec   // mcss_solve_stage_units_total
	stageRuns     CounterVec   // mcss_solve_stage_runs_total
	epochTicks    Counter      // mcss_timeline_epochs_total

	// Incremental repair passes.
	incEpochs     Counter    // mcss_incremental_epochs_total
	incPairs      CounterVec // mcss_incremental_pairs_total{pass}
	incTouched    Counter    // mcss_incremental_touched_topics_total
	incDirty      Counter    // mcss_incremental_dirty_subscribers_total
	incBudget     Counter    // mcss_incremental_improve_budget_total
	incSpent      Counter    // mcss_incremental_budget_spent_total
	incReleased   Counter    // mcss_incremental_released_vms_total
	incRegret     Gauge      // mcss_incremental_regret_frac
	incBaseRegret Gauge      // mcss_incremental_base_regret_frac
	fallbacks     Counter    // mcss_solve_fallbacks_total

	// Migration churn (every re-allocation, incremental or full).
	migMoved Counter // mcss_migration_pairs_moved_total
	migKept  Counter // mcss_migration_pairs_kept_total

	// Elastic controller.
	ctlEpochs    Counter    // mcss_controller_epochs_total
	ctlDuration  Histogram  // mcss_controller_epoch_duration_seconds
	ctlDecisions CounterVec // mcss_controller_scale_decisions_total{direction}
	ctlAdoptions CounterVec // mcss_controller_adoptions_total{decision}
	ctlMoved     Counter    // mcss_controller_pairs_moved_total
	ctlActive    Gauge      // mcss_controller_active_vms
	ctlBilled    Gauge      // mcss_controller_billed_vms
	ctlUtil      Gauge      // mcss_controller_utilization
	vmsByType    GaugeVec   // mcss_vms{type}
	hourlyRate   Gauge      // mcss_hourly_rental_rate_usd

	// Billing ledger mirrors (monotone Counter.Set).
	billAcquired Counter // mcss_billing_vms_acquired_total
	billReleased Counter // mcss_billing_vms_released_total
	billHours    Counter // mcss_billing_started_hours_total
	billTransfer Counter // mcss_billing_transfer_bytes_total
	billRental   Gauge   // mcss_billing_rental_cost_usd
	billXferCost Gauge   // mcss_billing_transfer_cost_usd
	billTotal    Gauge   // mcss_billing_total_cost_usd

	// Allocation / packer-index statistics.
	allocVMs        Gauge // mcss_alloc_vms
	allocPairs      Gauge // mcss_alloc_pairs
	allocPlacements Gauge // mcss_alloc_placements
	allocSpread     Gauge // mcss_alloc_topic_spread_avg
	allocFree       Gauge // mcss_alloc_free_bytes_per_hour
	allocCost       Gauge // mcss_alloc_cost_usd

	// Multi-region topology / egress billing.
	topoRegions    Gauge    // mcss_topo_regions
	topoRegionVMs  GaugeVec // mcss_topo_region_vms{region}
	topoViolations Gauge    // mcss_topo_slo_violations
	egressBytes    Counter  // mcss_egress_bytes_total
	egressCost     Gauge    // mcss_egress_cost_usd

	// Spot market / chaos mode.
	spotReclaims     Counter // mcss_spot_reclamations_total
	spotGroups       Counter // mcss_spot_reclaim_groups_total
	spotRepairPairs  Counter // mcss_spot_repair_pairs_total
	spotRepairVMs    Counter // mcss_spot_repair_new_vms_total
	spotRepriced     Counter // mcss_spot_price_epochs_total
	spotLostMinutes  Counter // mcss_spot_lost_pair_minutes_total
	spotActiveVMs    Gauge   // mcss_spot_active_vms
	spotSavingsFrac  Gauge   // mcss_spot_realized_savings_frac
	spotBillReclaims Counter // mcss_billing_vms_reclaimed_total

	// Crash safety (apply journal + retrying step executor).
	jrnRecords     Counter   // mcss_journal_records_total
	jrnBytes       Counter   // mcss_journal_bytes_total
	jrnFsync       Histogram // mcss_journal_fsync_seconds
	jrnCompactions Counter   // mcss_journal_compactions_total
	jrnRecoveries  Counter   // mcss_journal_recoveries_total
	jrnReplayed    Counter   // mcss_journal_replayed_records_total
	applyRetries   Counter   // mcss_apply_retries_total
	applyGiveUps   Counter   // mcss_apply_retry_exhausted_total
}

// NewMetrics registers the full mcss_* family set on reg (a nil reg gets a
// fresh registry) and returns the instrumentation facade.
func NewMetrics(reg *Registry) *Metrics {
	if reg == nil {
		reg = NewRegistry()
	}
	m := &Metrics{Registry: reg}

	m.stageDuration = reg.HistogramVec("mcss_solve_stage_duration_seconds",
		"Wall time per completed solver stage.", nil, "stage")
	m.stageUnits = reg.CounterVec("mcss_solve_stage_units_total",
		"Units processed per solver stage (subscribers, pairs, DP nodes).", "stage")
	m.stageRuns = reg.CounterVec("mcss_solve_stage_runs_total",
		"Completed runs per solver stage.", "stage")
	m.epochTicks = reg.Counter("mcss_timeline_epochs_total",
		"Timeline epochs reported through the observer.")

	m.incEpochs = reg.Counter("mcss_incremental_epochs_total",
		"Incremental re-solve epochs absorbed by the persistent index.")
	m.incPairs = reg.CounterVec("mcss_incremental_pairs_total",
		"Pairs handled per incremental repair pass.", "pass")
	m.incTouched = reg.Counter("mcss_incremental_touched_topics_total",
		"Topics touched by incremental epochs.")
	m.incDirty = reg.Counter("mcss_incremental_dirty_subscribers_total",
		"Subscribers dirtied by incremental epochs.")
	m.incBudget = reg.Counter("mcss_incremental_improve_budget_total",
		"Relocation budget granted to improve/drain passes.")
	m.incSpent = reg.Counter("mcss_incremental_budget_spent_total",
		"Relocation budget consumed by improve/drain passes.")
	m.incReleased = reg.Counter("mcss_incremental_released_vms_total",
		"VMs released by incremental end-of-epoch compaction.")
	m.incRegret = reg.Gauge("mcss_incremental_regret_frac",
		"Cost regret vs the maintained lower bound after the last incremental epoch.")
	m.incBaseRegret = reg.Gauge("mcss_incremental_base_regret_frac",
		"Cost regret vs the lower bound at the last full solve.")
	m.fallbacks = reg.Counter("mcss_solve_fallbacks_total",
		"Incremental epochs that fell back to a full re-solve on regret drift.")

	m.migMoved = reg.Counter("mcss_migration_pairs_moved_total",
		"Pairs whose host VM changed across re-allocations.")
	m.migKept = reg.Counter("mcss_migration_pairs_kept_total",
		"Pairs kept on their VM across re-allocations.")

	m.ctlEpochs = reg.Counter("mcss_controller_epochs_total",
		"Epochs processed by the elastic controller.")
	m.ctlDuration = reg.Histogram("mcss_controller_epoch_duration_seconds",
		"End-to-end wall time per controller epoch.", nil)
	m.ctlDecisions = reg.CounterVec("mcss_controller_scale_decisions_total",
		"Controller scale decisions by direction (up = acquired VMs, down = released VMs).", "direction")
	m.ctlAdoptions = reg.CounterVec("mcss_controller_adoptions_total",
		"Epoch decisions: adopted, forced, or kept placements.", "decision")
	m.ctlMoved = reg.Counter("mcss_controller_pairs_moved_total",
		"Pair migrations actually incurred by controller epochs.")
	m.ctlActive = reg.Gauge("mcss_controller_active_vms",
		"VMs serving placements after the last epoch.")
	m.ctlBilled = reg.Gauge("mcss_controller_billed_vms",
		"VMs billed (active + cooldown-held) after the last epoch.")
	m.ctlUtil = reg.Gauge("mcss_controller_utilization",
		"Bandwidth utilization of the adopted allocation.")
	m.vmsByType = reg.GaugeVec("mcss_vms",
		"Active VMs by instance type.", "type")
	m.hourlyRate = reg.Gauge("mcss_hourly_rental_rate_usd",
		"Hourly rental rate of the current allocation.")

	m.billAcquired = reg.Counter("mcss_billing_vms_acquired_total",
		"VM acquisitions charged to the billing ledger.")
	m.billReleased = reg.Counter("mcss_billing_vms_released_total",
		"VM releases recorded by the billing ledger.")
	m.billHours = reg.Counter("mcss_billing_started_hours_total",
		"Started instance-hours billed so far.")
	m.billTransfer = reg.Counter("mcss_billing_transfer_bytes_total",
		"Transfer bytes accrued by the billing ledger.")
	m.billRental = reg.Gauge("mcss_billing_rental_cost_usd",
		"Rental cost of the run so far.")
	m.billXferCost = reg.Gauge("mcss_billing_transfer_cost_usd",
		"Transfer cost of the run so far.")
	m.billTotal = reg.Gauge("mcss_billing_total_cost_usd",
		"Total bill of the run so far.")

	m.allocVMs = reg.Gauge("mcss_alloc_vms",
		"VMs in the current allocation.")
	m.allocPairs = reg.Gauge("mcss_alloc_pairs",
		"Placed (topic, subscriber) pairs in the current allocation.")
	m.allocPlacements = reg.Gauge("mcss_alloc_placements",
		"Topic placements (ingress streams) in the current allocation.")
	m.allocSpread = reg.Gauge("mcss_alloc_topic_spread_avg",
		"Mean placements per hosted topic (1.0 = no duplicated ingress).")
	m.allocFree = reg.Gauge("mcss_alloc_free_bytes_per_hour",
		"Unused bandwidth capacity across the current allocation.")
	m.allocCost = reg.Gauge("mcss_alloc_cost_usd",
		"Objective cost of the current allocation.")

	m.topoRegions = reg.Gauge("mcss_topo_regions",
		"Regions in the active topology (0 = single-region/paper mode).")
	m.topoRegionVMs = reg.GaugeVec("mcss_topo_region_vms",
		"Active VMs by region of the current allocation.", "region")
	m.topoViolations = reg.Gauge("mcss_topo_slo_violations",
		"Placed pairs whose modeled RTT exceeds the latency SLO ceiling.")
	m.egressBytes = reg.Counter("mcss_egress_bytes_total",
		"Cross-region transfer bytes accrued by the billing ledger.")
	m.egressCost = reg.Gauge("mcss_egress_cost_usd",
		"Cross-region transfer cost of the run so far.")

	m.spotReclaims = reg.Counter("mcss_spot_reclamations_total",
		"Spot VMs reclaimed by the provider (chaos mode).")
	m.spotGroups = reg.Counter("mcss_spot_reclaim_groups_total",
		"Correlated reclamation groups (storms and zone-grouped draws).")
	m.spotRepairPairs = reg.Counter("mcss_spot_repair_pairs_total",
		"Pairs re-homed by chaos crash repairs.")
	m.spotRepairVMs = reg.Counter("mcss_spot_repair_new_vms_total",
		"Replacement VMs deployed by chaos crash repairs.")
	m.spotRepriced = reg.Counter("mcss_spot_price_epochs_total",
		"Epochs whose decision fleet was repriced by the spot schedule.")
	m.spotLostMinutes = reg.Counter("mcss_spot_lost_pair_minutes_total",
		"Modeled delivery pair-minutes lost to reclamations (repair lag).")
	m.spotActiveVMs = reg.Gauge("mcss_spot_active_vms",
		"Active VMs on interruptible (spot) instance types.")
	m.spotSavingsFrac = reg.Gauge("mcss_spot_realized_savings_frac",
		"Realized cost saving of the spot portfolio vs the all-on-demand baseline (set by experiments/replay).")
	m.spotBillReclaims = reg.Counter("mcss_billing_vms_reclaimed_total",
		"Provider-initiated rental terminations recorded by the billing ledger.")

	m.jrnRecords = reg.Counter("mcss_journal_records_total",
		"Records appended to the apply journal.")
	m.jrnBytes = reg.Counter("mcss_journal_bytes_total",
		"Framed bytes appended to the apply journal.")
	m.jrnFsync = reg.Histogram("mcss_journal_fsync_seconds",
		"Wall time per apply-journal fsync.", nil)
	m.jrnCompactions = reg.Counter("mcss_journal_compactions_total",
		"Snapshot compactions of the apply journal.")
	m.jrnRecoveries = reg.Counter("mcss_journal_recoveries_total",
		"Startup recoveries replayed from the apply journal.")
	m.jrnReplayed = reg.Counter("mcss_journal_replayed_records_total",
		"Journal records replayed by startup recoveries.")
	m.applyRetries = reg.Counter("mcss_apply_retries_total",
		"Step executions retried by the deploy executor.")
	m.applyGiveUps = reg.Counter("mcss_apply_retry_exhausted_total",
		"Steps abandoned after exhausting executor retries (or permanent failures).")
	return m
}

// JournalHooks returns the hook set that feeds apply-journal activity
// into the mcss_journal_* families; hand it to deploy.JournalOptions.
func (m *Metrics) JournalHooks() deploy.JournalHooks {
	return deploy.JournalHooks{
		Appended: func(bytes int) {
			m.jrnRecords.Inc()
			m.jrnBytes.Add(float64(bytes))
		},
		Fsync:     func(seconds float64) { m.jrnFsync.Observe(seconds) },
		Compacted: func() { m.jrnCompactions.Inc() },
	}
}

// RecordRecovery absorbs one startup journal recovery.
func (m *Metrics) RecordRecovery(rec *deploy.Recovery) {
	m.jrnRecoveries.Inc()
	m.jrnReplayed.Add(float64(rec.Records))
}

// ApplyRetryHooks returns the OnRetry / OnGiveUp callbacks that feed the
// mcss_apply_retry* counters; hand them to deploy.RetryConfig.
func (m *Metrics) ApplyRetryHooks() (onRetry func(step, attempt int, err error), onGiveUp func(step, attempts int, err error)) {
	return func(int, int, error) { m.applyRetries.Inc() },
		func(int, int, error) { m.applyGiveUps.Inc() }
}

// Observer returns the core observer that feeds solver-stage metrics into
// this set. It satisfies core.StatsObserver, so stage durations and unit
// throughput arrive via the consolidated StageStats callback; the
// per-batch OnProgress path stays free of registry work.
func (m *Metrics) Observer() core.StatsObserver { return metricsObserver{m} }

type metricsObserver struct{ m *Metrics }

func (o metricsObserver) OnStageStart(stage string, total int64)     {}
func (o metricsObserver) OnProgress(stage string, done, total int64) {}
func (o metricsObserver) OnStageDone(stage string, _ time.Duration) {
	_ = stage // recorded via OnStageStats, which always follows
}
func (o metricsObserver) OnEpoch(epoch, total int) { o.m.epochTicks.Inc() }
func (o metricsObserver) OnStageStats(s core.StageStats) {
	o.m.stageDuration.With(s.Stage).Observe(s.Elapsed.Seconds())
	o.m.stageUnits.With(s.Stage).Add(float64(s.Done))
	o.m.stageRuns.With(s.Stage).Inc()
}

// RecordMigrationStats absorbs one re-allocation's stats: churn counters,
// the incremental engine's per-pass telemetry when present, and the
// fallback counter.
func (m *Metrics) RecordMigrationStats(stats dynamic.MigrationStats) {
	m.migMoved.Add(float64(stats.PairsMoved))
	m.migKept.Add(float64(stats.PairsKept))
	if stats.Fallback {
		m.fallbacks.Inc()
	}
	ep := stats.Epoch
	epochRan := ep.Dropped != 0 || ep.Inserted != 0 || ep.Improved != 0 ||
		ep.Kept != 0 || ep.TouchedTopics != 0 || ep.DirtySubs != 0
	if !epochRan {
		if stats.RegretFrac > 0 || stats.BaseRegretFrac > 0 {
			m.incRegret.Set(stats.RegretFrac)
			m.incBaseRegret.Set(stats.BaseRegretFrac)
		}
		return
	}
	m.incEpochs.Inc()
	m.incPairs.With("dropped").Add(float64(ep.Dropped))
	m.incPairs.With("evicted").Add(float64(ep.Evicted))
	m.incPairs.With("inserted").Add(float64(ep.Inserted))
	m.incPairs.With("improved").Add(float64(ep.Improved))
	m.incPairs.With("drained").Add(float64(ep.DrainMoved))
	m.incPairs.With("kept").Add(float64(ep.Kept))
	m.incTouched.Add(float64(ep.TouchedTopics))
	m.incDirty.Add(float64(ep.DirtySubs))
	m.incBudget.Add(float64(ep.ImproveBudget))
	m.incSpent.Add(float64(ep.BudgetSpent))
	m.incReleased.Add(float64(ep.ReleasedVMs))
	m.incRegret.Set(ep.Regret)
	m.incBaseRegret.Set(ep.BaseRegret)
}

// RecordEpochReport absorbs one controller epoch: duration, scale
// decisions, fleet gauges, the per-type instance mix, and the candidate's
// migration stats (fallback and incremental telemetry included).
func (m *Metrics) RecordEpochReport(ep elastic.EpochReport) {
	m.ctlEpochs.Inc()
	m.ctlDuration.Observe(ep.Duration.Seconds())
	if ep.AcquiredVMs > 0 {
		m.ctlDecisions.With("up").Inc()
	}
	if ep.ReleasedVMs > 0 {
		m.ctlDecisions.With("down").Inc()
	}
	switch {
	case ep.Forced:
		m.ctlAdoptions.With("forced").Inc()
	case ep.Adopted:
		m.ctlAdoptions.With("adopted").Inc()
	default:
		m.ctlAdoptions.With("kept").Inc()
	}
	m.ctlMoved.Add(float64(ep.PairsMoved))
	m.ctlActive.Set(float64(ep.ActiveVMs))
	m.ctlBilled.Set(float64(ep.BilledVMs))
	m.ctlUtil.Set(ep.Utilization)
	m.vmsByType.Reset()
	spotVMs := 0
	for name, n := range ep.ActiveMix {
		m.vmsByType.With(name).Set(float64(n))
		if pricing.IsSpot(name) {
			spotVMs += n
		}
	}
	m.spotActiveVMs.Set(float64(spotVMs))
	if ep.Repriced {
		m.spotRepriced.Inc()
	}
	if ep.ReclaimedVMs > 0 {
		m.spotReclaims.Add(float64(ep.ReclaimedVMs))
		m.spotGroups.Add(float64(ep.ReclaimGroups))
		m.spotRepairPairs.Add(float64(ep.RepairedPairs))
		m.spotRepairVMs.Add(float64(ep.RepairNewVMs))
		m.spotLostMinutes.Add(float64(ep.LostPairMinutes))
	}
	if ep.Epoch > 0 || ep.CandidateStats != (dynamic.MigrationStats{}) {
		m.RecordMigrationStats(ep.CandidateStats)
	}
}

// RecordAllocation refreshes the allocation/index gauges: fleet size, pair
// and placement (ingress-stream) counts, mean topic spread, free capacity,
// objective cost, and the hourly rental rate.
func (m *Metrics) RecordAllocation(alloc *core.Allocation, model pricing.Model) {
	if alloc == nil {
		return
	}
	var pairs, placements, free int64
	topics := make(map[int]struct{})
	for _, vm := range alloc.VMs {
		pairs += int64(vm.NumPairs())
		placements += int64(len(vm.Placements))
		free += vm.FreeBytesPerHour()
		for _, p := range vm.Placements {
			topics[int(p.Topic)] = struct{}{}
		}
	}
	m.allocVMs.Set(float64(alloc.NumVMs()))
	m.allocPairs.Set(float64(pairs))
	m.allocPlacements.Set(float64(placements))
	if len(topics) > 0 {
		m.allocSpread.Set(float64(placements) / float64(len(topics)))
	} else {
		m.allocSpread.Set(0)
	}
	m.allocFree.Set(float64(free))
	m.allocCost.Set(alloc.Cost(model).USD())
	m.hourlyRate.Set(alloc.HourlyRentalRate(model).USD())
}

// RecordTopology publishes the active topology's region count and the
// per-region distribution of the allocation's active VMs (region resolved
// from each VM's instance tag, untagged types in the home region). A nil
// topology clears the family back to the paper's single-region reading.
func (m *Metrics) RecordTopology(t *core.Topology, alloc *core.Allocation) {
	m.topoRegionVMs.Reset()
	if t == nil {
		m.topoRegions.Set(0)
		return
	}
	m.topoRegions.Set(float64(t.NumRegions()))
	if alloc == nil {
		return
	}
	counts := make(map[int]int, t.NumRegions())
	for _, vm := range alloc.VMs {
		counts[core.RegionOfInstance(t, vm.Instance)]++
	}
	for r, n := range counts {
		m.topoRegionVMs.With(t.RegionName(r)).Set(float64(n))
	}
}

// SetSLOViolations publishes the current count of placed pairs whose
// modeled delivery RTT exceeds the latency SLO ceiling (core.EvalLatency's
// Violations figure).
func (m *Metrics) SetSLOViolations(n int64) { m.topoViolations.Set(float64(n)) }

// SetSpotSavings publishes the realized saving of a spot-portfolio run
// versus its all-on-demand baseline: (baseline − realized) / baseline over
// ledger-billed totals. Experiments and chaos replays set it once their
// baseline is known.
func (m *Metrics) SetSpotSavings(frac float64) { m.spotSavingsFrac.Set(frac) }

// RecordLedger mirrors the billing ledger's monotone totals and cost
// gauges. Safe to call repeatedly — counters only move forward.
func (m *Metrics) RecordLedger(l *elastic.BillingLedger) {
	if l == nil {
		return
	}
	m.billAcquired.Set(float64(l.AcquiredVMs()))
	m.billReleased.Set(float64(l.ReleasedVMs()))
	m.spotBillReclaims.Set(float64(l.ReclaimedVMs()))
	m.billHours.Set(float64(l.StartedHours()))
	m.billTransfer.Set(float64(l.TransferBytes()))
	m.egressBytes.Set(float64(l.EgressBytes()))
	m.billRental.Set(l.RentalCost().USD())
	m.billXferCost.Set(l.TransferCost().USD())
	m.egressCost.Set(l.EgressCost().USD())
	m.billTotal.Set(l.TotalCost().USD())
}
