// Package mcss is a Go implementation of the resource-allocation system
// from "Cost-Effective Resource Allocation for Deploying Pub/Sub on Cloud"
// (Setty, Vitenberg, Kreitz, Urdaneta, van Steen — ICDCS 2014).
//
// Given a topic-based pub/sub workload driven by social interaction (users
// both publish, as topics, and follow, as subscribers), the library answers
// the paper's three questions: the minimum resources needed to satisfy all
// subscribers, a cost-effective allocation of topic–subscriber pairs onto
// virtual machines of bounded bandwidth, and the monetary cost of hosting
// the deployment on an IaaS provider priced like Amazon EC2.
//
// The heart of the library is the two-stage MCSS heuristic, driven through
// a context-aware Planner built from functional options:
//
//	w, _ := mcss.NewWorkloadBuilder().
//	        AddTopic("artist-1", 120). // events per hour
//	        AddSubscription("user-1", "artist-1").
//	        Build()
//	model := mcss.NewModel(mcss.C3Large)
//	p, _ := mcss.NewPlanner(mcss.WithTau(100), mcss.WithModel(model))
//	res, _ := p.Solve(ctx, w)
//	fmt.Println(res.Allocation.NumVMs(), res.Cost(model))
//
// Every long-running Planner call takes a context.Context — cancellation
// and deadlines are honored at bounded intervals inside the solver hot
// loops — and an Observer (WithObserver) streams per-stage and per-epoch
// progress. Stage algorithms are pluggable named strategies (WithStage1,
// WithStage2, WithStrategy; RegisterStrategy adds your own).
//
// Beyond the paper, the solver packs onto heterogeneous fleets: pass
// WithFleet (e.g. CatalogFleet) and Stage 2 picks which instance size to
// deploy next by modeled cost per byte served — big instances for
// hot topics, small ones for the tail — never costing more than the best
// homogeneous choice from the same fleet.
//
// Beyond the snapshot problem, the module models workloads that change
// over the day: a Timeline is an epoch-indexed sequence of snapshots
// (diurnal rate modulation, subscriber churn, flash crowds, via
// GenerateDiurnal), and an ElasticController walks it — re-solving each
// epoch, applying a hysteresis policy (utilization-guarded scale-up,
// cooldown-gated scale-down, a migration budget), and billing every VM
// per started instance-hour in a BillingLedger, like EC2 actually
// charges.
//
// Every change to a running deployment flows through one declarative
// lifecycle: Spec → Plan → Diff → Apply. Planner.Plan computes a
// serializable DeployPlan (the workload diff, an executable step sequence,
// a forecast cost delta, and a fingerprint of the state it was computed
// against); SavePlan/LoadPlan persist it as reviewable JSON; Apply enacts
// it on a Provisioner, refusing stale plans with ErrStalePlan, supporting
// dry runs and per-step progress, and rolling back on failure. The elastic
// controller emits one such plan per epoch, so autoscaling decisions are
// auditable artifacts; cmd/mcss drives the same lifecycle from the shell
// (mcss plan / diff / apply) and examples/gitops shows the
// plan-review-apply workflow end to end.
//
// The module also ships every substrate the paper's evaluation needs:
// synthetic Spotify-like and Twitter-like trace generators, the 2014 EC2
// pricing catalog, a fleet-aware lower bound, an exact solver for small
// instances (branching over instance choices), a discrete-event pub/sub
// simulator with failure injection, a live channel-based broker cluster,
// and an online re-provisioner. The cmd/experiments binary regenerates
// every figure of the paper's evaluation plus homogeneous-vs-heterogeneous
// and static-vs-elastic comparisons; see DESIGN.md and EXPERIMENTS.md.
package mcss

import (
	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/exact"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/pubsub"
	"github.com/pubsub-systems/mcss/internal/satisfy"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/topo"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/traceio"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Workload model.
type (
	// Workload is an immutable pub/sub workload: topics with event
	// rates plus the subscription relation.
	Workload = workload.Workload
	// WorkloadBuilder assembles workloads incrementally by name.
	WorkloadBuilder = workload.Builder
	// TopicID densely identifies a topic.
	TopicID = workload.TopicID
	// SubID densely identifies a subscriber.
	SubID = workload.SubID
	// Pair is a topic–subscriber pair, the allocation granularity.
	Pair = workload.Pair
)

// NewWorkloadBuilder returns an empty workload builder.
func NewWorkloadBuilder() *WorkloadBuilder { return workload.NewBuilder() }

// FromCSR builds a workload directly from CSR adjacency; see
// workload.FromCSR for the exact contract.
func FromCSR(rates []int64, subOff []int64, subTopics []TopicID, topicNames, subNames []string) (*Workload, error) {
	return workload.FromCSR(rates, subOff, subTopics, topicNames, subNames)
}

// Pricing.
type (
	// InstanceType is one rentable VM flavor.
	InstanceType = pricing.InstanceType
	// Model instantiates the paper's cost functions C1 and C2.
	Model = pricing.Model
	// Fleet is an ordered set of instance types with per-type capacities
	// and hourly rates — the heterogeneous generalization of a single
	// instance choice. Set SolverConfig.Fleet to let Stage 2 mix sizes.
	Fleet = pricing.Fleet
	// MicroUSD is money in 1e-6 dollars.
	MicroUSD = pricing.MicroUSD
)

// The 2014 compute-optimized EC2 catalog the paper evaluates.
var (
	C3Large   = pricing.C3Large
	C3XLarge  = pricing.C3XLarge
	C32XLarge = pricing.C32XLarge
	C34XLarge = pricing.C34XLarge
	C38XLarge = pricing.C38XLarge
)

// NewModel returns the paper's default pricing model (240 h rental,
// $0.12/GB transfer) for the instance type.
func NewModel(it InstanceType) Model { return pricing.NewModel(it) }

// InstanceCatalog lists the known instance types, smallest first.
func InstanceCatalog() []InstanceType { return pricing.Catalog() }

// InstanceByName looks up an instance type.
func InstanceByName(name string) (InstanceType, bool) { return pricing.ByName(name) }

// NewFleet builds a heterogeneous fleet from the given instance types with
// their honest mbps-derived capacities.
func NewFleet(types ...InstanceType) (Fleet, error) { return pricing.NewFleet(types...) }

// CatalogFleet returns the full instance catalog as a fleet — pass it via
// WithFleet (or SolverConfig.Fleet) to let the solver deploy big instances
// for hot topics and small ones for the tail.
func CatalogFleet() Fleet { return pricing.CatalogFleet() }

// Solver.
type (
	// SolverConfig parameterizes one MCSS solve.
	SolverConfig = core.Config
	// Result bundles a solve's selection, allocation, and stage times.
	Result = core.Result
	// Selection is Stage 1's chosen pair set.
	Selection = core.Selection
	// Allocation is Stage 2's packed VM fleet.
	Allocation = core.Allocation
	// VM is one allocated broker with placements and accounting.
	VM = core.VM
	// TopicPlacement is a topic group served by one VM.
	TopicPlacement = core.TopicPlacement
	// Bound is the Alg. 5 lower bound.
	Bound = core.Bound
	// OptFlags toggles CustomBinPacking optimizations.
	OptFlags = core.OptFlags
)

// CustomBinPacking's optimization flags (see the paper's §IV-D).
const (
	OptExpensiveTopicFirst = core.OptExpensiveTopicFirst
	OptMostFreeVM          = core.OptMostFreeVM
	OptCostBased           = core.OptCostBased
	OptAll                 = core.OptAll
)

// ErrInfeasible reports that a topic cannot fit a single pair within the
// VM capacity.
var ErrInfeasible = core.ErrInfeasible

// SelectAllPairs returns the selection containing every pair (the no-τ
// deployment) — an upper baseline, and a convenient building block for
// custom Stage-1 strategies.
func SelectAllPairs(w *Workload) *Selection { return core.SelectAllPairs(w) }

// SelectionFromPairs builds a Selection from an explicit pair list in any
// order (duplicates are dropped; out-of-range IDs are an error) — how
// custom strategies and external tools re-enter the packing pipeline with
// their own pair choice.
func SelectionFromPairs(w *Workload, pairs []Pair) (*Selection, error) {
	return core.SelectionFromPairs(w, pairs)
}

// ExactMaxPairs is the exact solver's instance-size cap.
const ExactMaxPairs = exact.MaxPairs

// Trace generation.
type (
	// TwitterTraceConfig parameterizes the Twitter-like generator.
	TwitterTraceConfig = tracegen.TwitterConfig
	// SpotifyTraceConfig parameterizes the Spotify-like generator.
	SpotifyTraceConfig = tracegen.SpotifyConfig
	// RandomTraceConfig parameterizes the uniform generator.
	RandomTraceConfig = tracegen.RandomConfig
)

// DefaultTwitterTrace returns the experiment-scale Twitter-like config.
func DefaultTwitterTrace() TwitterTraceConfig { return tracegen.DefaultTwitterConfig() }

// DefaultSpotifyTrace returns the experiment-scale Spotify-like config.
func DefaultSpotifyTrace() SpotifyTraceConfig { return tracegen.DefaultSpotifyConfig() }

// GenerateTwitter synthesizes a Twitter-like workload.
func GenerateTwitter(cfg TwitterTraceConfig) (*Workload, error) { return tracegen.Twitter(cfg) }

// GenerateSpotify synthesizes a Spotify-like workload.
func GenerateSpotify(cfg SpotifyTraceConfig) (*Workload, error) { return tracegen.Spotify(cfg) }

// GenerateRandom synthesizes a uniform workload for tests and demos.
func GenerateRandom(cfg RandomTraceConfig) (*Workload, error) { return tracegen.Random(cfg) }

// Trace persistence.

// SaveTrace writes a workload to path (gzip when it ends in ".gz").
func SaveTrace(w *Workload, path string) error { return traceio.Save(w, path) }

// LoadTrace reads a workload from path.
func LoadTrace(path string) (*Workload, error) { return traceio.Load(path) }

// Simulation.
type (
	// SimConfig parameterizes the discrete-event simulator.
	SimConfig = pubsub.SimConfig
	// SimResult reports a completed simulation.
	SimResult = pubsub.SimResult
	// Crash schedules a VM failure during simulation.
	Crash = pubsub.Crash
	// Cluster is the live channel-based broker deployment.
	Cluster = pubsub.Cluster
	// Message is one publication flowing through a Cluster.
	Message = pubsub.Message
)

// Simulate replays the workload against an allocation and reports
// deliveries, traffic, latency, and drops.
func Simulate(w *Workload, alloc *Allocation, cfg SimConfig) (*SimResult, error) {
	return pubsub.Simulate(w, alloc, cfg)
}

// CheckSatisfaction verifies a simulation delivered enough events to every
// subscriber.
func CheckSatisfaction(w *Workload, res *SimResult, tau int64, fraction float64) error {
	return pubsub.CheckSatisfaction(w, res, tau, fraction)
}

// NewCluster builds a live broker cluster realizing an allocation.
func NewCluster(w *Workload, alloc *Allocation) (*Cluster, error) {
	return pubsub.NewCluster(w, alloc)
}

// Dynamic re-provisioning.
type (
	// Provisioner keeps an allocation current across workload deltas and
	// failures.
	Provisioner = dynamic.Provisioner
	// Delta is a batch of workload changes.
	Delta = dynamic.Delta
	// MigrationStats quantifies re-allocation churn.
	MigrationStats = dynamic.MigrationStats
	// RepairStats quantifies a crash repair.
	RepairStats = dynamic.RepairStats
	// IncrementalPolicy tunes Provisioner.UpdateIncremental: the regret
	// drift allowed before a full re-solve.
	IncrementalPolicy = dynamic.IncrementalPolicy
)

// DeltaBetween computes the Delta transforming one workload snapshot into
// its successor (IDs stable, counts may only grow) — the bridge from
// timeline epochs to the provisioner.
func DeltaBetween(old, next *Workload) (Delta, error) { return dynamic.DeltaBetween(old, next) }

// ApplyDelta materializes a workload with the (validated) delta applied.
func ApplyDelta(w *Workload, d Delta) (*Workload, error) { return dynamic.ApplyDelta(w, d) }

// DefaultIncrementalPolicy returns the incremental-update defaults: 2%
// regret drift versus the maintained lower bound before UpdateIncremental
// falls back to a full re-solve.
func DefaultIncrementalPolicy() IncrementalPolicy { return dynamic.DefaultIncrementalPolicy() }

// MigrationStatsBetween diffs primary pair hosts between two allocations
// and fills the VM-count and cost fields under the model — the one helper
// Preview, UpdateIncremental, and the deploy planner all route their stats
// through. Neither allocation may place a negative ID.
func MigrationStatsBetween(before, after *Allocation, m Model) MigrationStats {
	return dynamic.MigrationStatsBetween(before, after, m)
}

// Timelines and the elastic control plane.
type (
	// Timeline is an epoch-indexed sequence of workload snapshots with a
	// fixed epoch duration and stable identifiers.
	Timeline = timeline.Timeline
	// DiurnalTraceConfig parameterizes the diurnal timeline modulator
	// (activity curve, subscriber churn, flash crowds).
	DiurnalTraceConfig = tracegen.DiurnalConfig
	// ElasticPolicy is the hysteresis knob set of the elastic controller.
	ElasticPolicy = elastic.Policy
	// ElasticController walks a timeline, re-solving and billing per epoch.
	ElasticController = elastic.Controller
	// ElasticRunReport is a full controller run: decisions, allocations,
	// and the bill.
	ElasticRunReport = elastic.RunReport
	// ElasticEpochReport records one epoch's control decision.
	ElasticEpochReport = elastic.EpochReport
	// BillingLedger bills VM rentals per started instance-hour plus
	// transfer volume.
	BillingLedger = elastic.BillingLedger
	// Rental is one VM's billed lifetime in a BillingLedger.
	Rental = elastic.Rental
)

// NewTimeline validates and assembles a timeline from epoch snapshots.
func NewTimeline(epochMinutes int64, epochs []*Workload) (*Timeline, error) {
	return timeline.New(epochMinutes, epochs)
}

// DefaultDiurnalTrace returns the Twitter-like daily cycle: 24 hourly
// epochs peaking at 20:00 with a 4× peak-to-trough swing.
func DefaultDiurnalTrace() DiurnalTraceConfig { return tracegen.DefaultDiurnalConfig() }

// GenerateDiurnal modulates a base workload into a diurnal timeline.
func GenerateDiurnal(base *Workload, cfg DiurnalTraceConfig) (*Timeline, error) {
	return tracegen.Diurnal(base, cfg)
}

// ErrInvalidTimeline reports a structurally unusable timeline (no epochs,
// non-positive epoch duration, or epochs with unstable identifier counts).
// Both SaveTimeline and LoadTimeline surface structural violations as this
// one typed error; LoadTimeline reserves traceio's ErrBadFormat for
// malformed bytes.
var ErrInvalidTimeline = timeline.ErrInvalidTimeline

// SaveTimeline writes a timeline to path in the traceio timeline format
// (gzip when it ends in ".gz"). An invalid timeline is rejected with
// ErrInvalidTimeline before anything is written.
func SaveTimeline(tl *Timeline, path string) error {
	return traceio.SaveTimeline(tl, path)
}

// LoadTimeline reads a validated timeline from path. Malformed bytes fail
// with traceio's ErrBadFormat; bytes that parse into structurally invalid
// epochs fail with ErrInvalidTimeline, mirroring SaveTimeline.
func LoadTimeline(path string) (*Timeline, error) {
	return traceio.LoadTimeline(path)
}

// DefaultElasticPolicy is the hysteresis setting of the diurnal
// experiments: utilization-guarded scale-up, cooldown-gated scale-down,
// 15% packing headroom.
func DefaultElasticPolicy() ElasticPolicy { return elastic.DefaultPolicy() }

// OracleElasticPolicy re-solves and right-sizes every epoch — the
// clairvoyant lower-bound strategy.
func OracleElasticPolicy() ElasticPolicy { return elastic.OraclePolicy() }

// StaticPeakReport derives the provision-for-peak baseline from an oracle
// run over the same timeline.
func StaticPeakReport(tl *Timeline, oracle *ElasticRunReport) (*ElasticRunReport, error) {
	return elastic.StaticPeakReport(tl, oracle)
}

// NewBillingLedger returns an empty per-started-hour billing ledger
// pricing transfer at perGB per decimal GB.
func NewBillingLedger(perGB MicroUSD) *BillingLedger { return elastic.NewLedger(perGB) }

// Spot markets: discounted, interruptible capacity with per-epoch price
// timelines and correlated reclamation storms, consumed by the elastic
// controller through Planner.RunTimelineSpot.
type (
	// SpotMarket is a per-type spot price and reclamation-risk timeline
	// over a base fleet, plus zone-correlated storm windows.
	SpotMarket = spot.Market
	// SpotMarketConfig parameterizes the synthetic market generator
	// (discount, volatility, spikes, reclamation risk, storms).
	SpotMarketConfig = spot.MarketConfig
	// SpotScheduleConfig tunes how market prices become controller fleets:
	// the risk premium charged per expected interruption and the drift
	// threshold below which the decision fleet stays sticky.
	SpotScheduleConfig = spot.ScheduleConfig
)

// ErrInvalidSpotMarket reports a structurally unusable spot market (no
// types, spot price above on-demand, probabilities outside [0,1], storms
// outside the horizon). Both SaveSpotMarket and LoadSpotMarket surface
// structural violations as this one typed error; LoadSpotMarket reserves
// traceio's ErrBadFormat for malformed bytes.
var ErrInvalidSpotMarket = spot.ErrInvalidMarket

// IsSpotInstance reports whether an instance-type name is a spot variant
// ("<base>:spot") — e.g. for inspecting ElasticEpochReport.ActiveMix. A
// fleet that offers spot variants pins single-subscriber topics to its
// on-demand types, while replicated topics may ride the discount.
func IsSpotInstance(name string) bool { return pricing.IsSpot(name) }

// DefaultSpotMarketConfig returns the default spot trace: 24 hourly
// epochs, 3 zones, a 70% mean discount with mild volatility, rare price
// spikes, 2% baseline reclamation risk, and one storm in the second half.
func DefaultSpotMarketConfig() SpotMarketConfig { return spot.DefaultMarketConfig() }

// GenerateSpotMarket synthesizes a deterministic spot market over the base
// fleet: mean-reverting log-price walks per type, demand spikes, price-
// pressure-coupled reclamation risk, and correlated storms.
func GenerateSpotMarket(base Fleet, cfg SpotMarketConfig) (*SpotMarket, error) {
	return spot.GenerateMarket(base, cfg)
}

// SaveSpotMarket writes a spot market to path in the traceio spot-market
// format (gzip when it ends in ".gz"). An invalid market is rejected with
// ErrInvalidSpotMarket before anything is written.
func SaveSpotMarket(m *SpotMarket, path string) error { return traceio.SaveSpotMarket(m, path) }

// LoadSpotMarket reads a validated spot market from path. Malformed bytes
// fail with traceio's ErrBadFormat; bytes that parse into an invalid
// market fail with ErrInvalidSpotMarket, mirroring SaveSpotMarket.
func LoadSpotMarket(path string) (*SpotMarket, error) { return traceio.LoadSpotMarket(path) }

// Multi-region placement: a network topology makes region a first-class
// dimension — regional fleets, cross-region egress billing, and a latency
// SLO ceiling on each subscription's modeled delivery RTT. Attach one with
// WithTopology; without one everything reduces to the paper's
// single-region problem.
type (
	// Topology is the network-model interface the solver consumes: region
	// names, an inter-region RTT matrix, and a per-GB egress price matrix
	// with a zero diagonal.
	Topology = core.Topology
	// NetworkTopology is the concrete validated topology built by
	// NewTopology/SyntheticTopology and (de)serialized by
	// SaveTopology/LoadTopology.
	NetworkTopology = topo.Topology
	// LatencyReport summarizes an allocation's modeled delivery RTT
	// distribution and egress bill under a topology.
	LatencyReport = topo.LatencyReport
)

// ErrInvalidTopology reports a structurally unusable topology (no regions,
// duplicate names, mismatched matrix shapes, negative entries, non-zero
// diagonal egress). Both SaveTopology and LoadTopology surface structural
// violations as this one typed error; LoadTopology reserves traceio's
// ErrBadFormat for malformed bytes.
var ErrInvalidTopology = topo.ErrInvalidTopology

// NewTopology builds a validated topology from region names, an
// inter-region RTT matrix (milliseconds), and a per-GB egress price matrix
// (zero diagonal required). Inputs are copied.
func NewTopology(regions []string, rttMillis [][]int64, egressPerGB [][]MicroUSD) (*NetworkTopology, error) {
	return topo.New(regions, rttMillis, egressPerGB)
}

// SyntheticTopology returns a deterministic n-region topology with
// distance-proportional RTTs and a flat cross-region egress price — the
// default testbed of the latency experiments.
func SyntheticTopology(n int) *NetworkTopology { return topo.SyntheticTopology(n) }

// RegionalFleet replicates a base fleet into every region of the topology,
// tagging each copy "<name>@<region>". A single-region topology returns
// the base fleet unchanged, preserving the paper's instance names.
func RegionalFleet(base Fleet, t *NetworkTopology) (Fleet, error) {
	return topo.RegionalFleet(base, t)
}

// EvalLatency scores an allocation under a topology: the modeled
// publisher→broker→subscriber RTT distribution across placed pairs
// (p50/p99/max), SLO violations against a ceiling (0 = none), and the
// hourly cross-region egress volume and cost. A workload tagged with a
// region the topology does not have is an error.
func EvalLatency(t Topology, w *Workload, alloc *Allocation, messageBytes, sloMillis int64) (LatencyReport, error) {
	return topo.EvalLatency(t, w, alloc, messageBytes, sloMillis)
}

// TagRegions spreads a workload's subscribers across n regions with a
// Zipf-skewed geography and pins each topic to its plurality audience
// region, deterministically from seed. n <= 1 returns w unchanged.
func TagRegions(w *Workload, n int, seed int64) (*Workload, error) {
	return tracegen.TagRegions(w, n, seed)
}

// SaveTopology writes a topology to path in the traceio topology format
// (gzip when it ends in ".gz"). An invalid topology is rejected with
// ErrInvalidTopology before anything is written.
func SaveTopology(t *NetworkTopology, path string) error { return traceio.SaveTopology(t, path) }

// LoadTopology reads a validated topology from path. Malformed bytes fail
// with traceio's ErrBadFormat; bytes that parse into an invalid topology
// fail with ErrInvalidTopology, mirroring SaveTopology.
func LoadTopology(path string) (*NetworkTopology, error) { return traceio.LoadTopology(path) }

// Satisfaction metrics (the companion INFOCOM'14 framework, paper ref [9]).
type (
	// SatisfactionMetrics aggregates per-subscriber satisfaction ratios.
	SatisfactionMetrics = satisfy.Metrics
	// SatisfyResult is the outcome of the single-engine capacity-budget
	// maximization.
	SatisfyResult = satisfy.Result
	// Utilization summarizes packing quality of an allocation.
	Utilization = core.Utilization
)

// MeasureSatisfaction computes satisfaction metrics for delivered event
// rates against the workload's thresholds.
func MeasureSatisfaction(w *Workload, delivered []int64, tau int64) SatisfactionMetrics {
	return satisfy.Measure(w, delivered, tau)
}

// MaximizeSatisfied solves the single-engine problem: satisfy as many
// subscribers as possible within a total bandwidth budget.
func MaximizeSatisfied(w *Workload, tau, budgetBytesPerHour, messageBytes int64) (*SatisfyResult, error) {
	return satisfy.MaximizeSatisfied(w, tau, budgetBytesPerHour, messageBytes)
}

// MinBudgetToSatisfyAll reports the single-engine bandwidth needed to
// satisfy every subscriber under the Stage-1 greedy selection.
func MinBudgetToSatisfyAll(w *Workload, tau, messageBytes int64) int64 {
	return satisfy.MinBudgetToSatisfyAll(w, tau, messageBytes)
}
