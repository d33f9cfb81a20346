// Package core implements the MCSS (Minimum Cost Subscriber Satisfaction)
// heuristic from the ICDCS 2014 paper "Cost-Effective Resource Allocation
// for Deploying Pub/Sub on Cloud": a two-stage solver that first selects a
// bandwidth-minimal subset of topic–subscriber pairs satisfying every
// subscriber (Stage 1) and then packs the selection onto virtual machines of
// bounded bandwidth capacity (Stage 2), minimizing rental plus transfer cost.
//
// Both of the paper's Stage-1 algorithms (GreedySelectPairs and the naive
// RandomSelectPairs baseline), both Stage-2 algorithms (First-Fit bin
// packing and CustomBinPacking with its four incremental optimizations), and
// the per-instance lower bound (Alg. 5) are provided. See DESIGN.md for the
// mapping from the paper's pseudocode to this package.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Stage1Algo selects which pair-selection algorithm Stage 1 runs.
type Stage1Algo int

const (
	// Stage1Greedy is the paper's GreedySelectPairs (GSP, Alg. 2):
	// benefit/cost-ratio greedy selection per subscriber.
	Stage1Greedy Stage1Algo = iota
	// Stage1Random is the paper's RandomSelectPairs baseline (RSP,
	// Alg. 6): pairs taken in arbitrary (input) order until satisfied.
	Stage1Random
)

// String implements fmt.Stringer.
func (a Stage1Algo) String() string {
	switch a {
	case Stage1Greedy:
		return "GSP"
	case Stage1Random:
		return "RSP"
	default:
		return fmt.Sprintf("Stage1Algo(%d)", int(a))
	}
}

// Stage2Algo selects which allocation algorithm Stage 2 runs.
type Stage2Algo int

const (
	// Stage2FirstFit is the paper's FFBinPacking baseline (FFBP, Alg. 3):
	// pair-at-a-time first-fit.
	Stage2FirstFit Stage2Algo = iota
	// Stage2Custom is the paper's CustomBinPacking (CBP, Alg. 4); its
	// optimizations are toggled by OptFlags.
	Stage2Custom
)

// String implements fmt.Stringer.
func (a Stage2Algo) String() string {
	switch a {
	case Stage2FirstFit:
		return "FFBP"
	case Stage2Custom:
		return "CBP"
	default:
		return fmt.Sprintf("Stage2Algo(%d)", int(a))
	}
}

// OptFlags toggles CustomBinPacking's incremental optimizations, matching
// the ladder of the paper's §IV-D. Stage2Custom with zero flags is rung (b):
// grouping of pairs by topic, which is inherent to CBP.
type OptFlags uint8

const (
	// OptExpensiveTopicFirst is rung (c): allocate topics in
	// non-increasing order of their total selected event volume.
	OptExpensiveTopicFirst OptFlags = 1 << iota
	// OptMostFreeVM is rung (d): when distributing a topic's pairs among
	// already-deployed VMs, pick the VM with the most free capacity first.
	OptMostFreeVM
	// OptCostBased is rung (e): decide between distributing over existing
	// VMs and deploying fresh VMs by comparing modeled costs
	// (CheaperToDistribute, Alg. 7).
	OptCostBased

	// OptAll enables every optimization.
	OptAll = OptExpensiveTopicFirst | OptMostFreeVM | OptCostBased
)

// String renders the enabled flags.
func (f OptFlags) String() string {
	if f == 0 {
		return "group-only"
	}
	s := ""
	add := func(name string) {
		if s != "" {
			s += "+"
		}
		s += name
	}
	if f&OptExpensiveTopicFirst != 0 {
		add("expensive-first")
	}
	if f&OptMostFreeVM != 0 {
		add("most-free-vm")
	}
	if f&OptCostBased != 0 {
		add("cost-based")
	}
	return s
}

// Config parameterizes one MCSS solve.
type Config struct {
	// Tau is the satisfaction threshold τ in events per hour; each
	// subscriber v must receive at least τ_v = min(τ, Σ_{t∈T_v} ev_t).
	Tau int64
	// MessageBytes is the size of one event notification. The paper uses
	// 200 bytes for both traces.
	MessageBytes int64
	// Model supplies the rental duration and the cost functions C1/C2,
	// plus the VM capacity BC for single-type solves.
	Model pricing.Model
	// Fleet, when non-empty, lists the instance types Stage 2 may deploy,
	// each with its own capacity and hourly rate; the packers then choose
	// which size to deploy next by modeled cost per byte served. The zero
	// Fleet reproduces the paper's homogeneous setting as the one-type
	// fleet of Model's instance at Model's effective capacity.
	Fleet pricing.Fleet
	// Stage1 and Stage2 pick the algorithms. The zero values select
	// GSP + FFBP; the paper's recommended full solution is GSP + CBP with
	// OptAll, which is what DefaultConfig returns.
	Stage1 Stage1Algo
	Stage2 Stage2Algo
	// Opts toggles CBP optimizations (ignored by FFBP).
	Opts OptFlags
	// LenientFirstFit reproduces the paper's literal Alg. 3 capacity test
	// (`ev_t ≤ BC − bw_b`, which ignores the incoming increment when a
	// topic first lands on a VM) instead of the exact delta test. With it
	// set, per-VM bandwidth may exceed BC by up to one topic rate.
	LenientFirstFit bool

	// Observer receives progress callbacks from the solve stages, the
	// lower bound, the exact solver, and the elastic controller. Nil
	// disables all callbacks (the zero-overhead default).
	Observer Observer
	// Parallelism is the worker count for the parallel solver paths,
	// with one convention everywhere: 0 or 1 runs serially, n > 1 uses n
	// goroutines, and any negative value uses GOMAXPROCS. It bounds both
	// the Stage-1 subscriber sharding and the Stage-2 heterogeneous
	// portfolio (the mixed pack plus every single-type restriction run
	// concurrently). Results are bit-identical at every worker count:
	// Stage-1 shards are independent and the portfolio reduces its
	// members in a fixed deterministic order.
	Parallelism int

	// Topology, when non-nil, describes the multi-region network the
	// topology-aware strategies place against (regions, RTT matrix, egress
	// prices). The paper-faithful strategies ignore it; the "topo"
	// strategies read it, and the elastic controller bills egress with it.
	Topology Topology
	// LatencySLOMillis, when positive, is the per-subscription delivery-
	// latency ceiling in milliseconds: every selected pair's modeled
	// publisher→broker→subscriber RTT must stay at or under it. Zero means
	// no SLO (the paper's setting).
	LatencySLOMillis int64

	// Stage1Strategy, Stage2Strategy, and SolveStrategy optionally replace
	// the enum dispatch with registered pluggable implementations (see
	// RegisterStrategy): a non-zero Stage1Strategy overrides Stage1, a
	// non-zero Stage2Strategy overrides Stage2, and a non-zero
	// SolveStrategy replaces both stages with one complete solver. The
	// Planner façade fills these from strategy names.
	Stage1Strategy Strategy
	Stage2Strategy Strategy
	SolveStrategy  Strategy
}

// DefaultConfig returns the paper's full solution: GSP + CBP with all
// optimizations, 200-byte messages, and the given pricing model.
func DefaultConfig(tau int64, m pricing.Model) Config {
	return Config{
		Tau:          tau,
		MessageBytes: 200,
		Model:        m,
		Stage1:       Stage1Greedy,
		Stage2:       Stage2Custom,
		Opts:         OptAll,
	}
}

// normalize fills defaulted fields and validates.
func (c Config) normalize() (Config, error) {
	if c.MessageBytes == 0 {
		c.MessageBytes = 200
	}
	if c.MessageBytes < 0 {
		return c, fmt.Errorf("core: negative MessageBytes %d", c.MessageBytes)
	}
	if c.Tau <= 0 {
		return c, fmt.Errorf("core: Tau must be positive, got %d", c.Tau)
	}
	if c.Fleet.IsZero() && c.Model.CapacityBytesPerHour() <= 0 {
		return c, errors.New("core: pricing model has no positive VM capacity")
	}
	c.Fleet = c.Model.FleetOr(c.Fleet)
	for i := 0; i < c.Fleet.Len(); i++ {
		if c.Fleet.Capacity(i) <= 0 {
			return c, fmt.Errorf("core: fleet type %q has no positive capacity", c.Fleet.Type(i).Name)
		}
	}
	if c.LatencySLOMillis < 0 {
		return c, fmt.Errorf("core: negative LatencySLOMillis %d", c.LatencySLOMillis)
	}
	if c.Topology != nil && c.Topology.NumRegions() < 1 {
		return c, errors.New("core: topology has no regions")
	}
	if !c.Stage1Strategy.IsZero() && c.Stage1Strategy.SelectPairs == nil {
		return c, errors.New("core: Stage1Strategy has no SelectPairs implementation")
	}
	if !c.Stage2Strategy.IsZero() && c.Stage2Strategy.Pack == nil {
		return c, errors.New("core: Stage2Strategy has no Pack implementation")
	}
	if !c.SolveStrategy.IsZero() && c.SolveStrategy.Solve == nil {
		return c, errors.New("core: SolveStrategy has no Solve implementation")
	}
	return c, nil
}

// EffectiveFleet reports the fleet a solve under this config packs against:
// Config.Fleet when set, else the one-type fleet of the model's instance.
func (c Config) EffectiveFleet() pricing.Fleet { return c.Model.FleetOr(c.Fleet) }

// Errors returned by the solver.
var (
	// ErrInfeasible reports that some selected topic cannot fit even a
	// single pair (incoming + one outgoing stream) within BC.
	ErrInfeasible = errors.New("core: topic rate exceeds VM capacity; instance infeasible")
)

// TopicPlacement records that a set of subscribers of one topic is served
// from one VM.
type TopicPlacement struct {
	Topic workload.TopicID
	Subs  []workload.SubID
}

// VM is one allocated virtual machine with its placements and bandwidth
// accounting. Rates are bytes per hour.
type VM struct {
	// ID is the deployment index (0 = first deployed).
	ID int
	// Instance is the VM flavor this broker is deployed on; its hourly
	// rate is what the VM contributes to C1.
	Instance pricing.InstanceType
	// CapacityBytesPerHour is this VM's own bandwidth cap BC_b — the
	// fleet's effective capacity for Instance, which may be a calibrated
	// override of the honest mbps-derived value.
	CapacityBytesPerHour int64
	// Placements lists the topic groups served by this VM, in placement
	// order. A topic appears at most once per VM.
	Placements []TopicPlacement
	// OutBytesPerHour is the outgoing notification traffic:
	// Σ over placed pairs of ev_t · MessageBytes.
	OutBytesPerHour int64
	// InBytesPerHour is the incoming publication traffic:
	// Σ over distinct placed topics of ev_t · MessageBytes.
	InBytesPerHour int64
}

// BytesPerHour is the VM's total bandwidth consumption bw_b.
func (vm *VM) BytesPerHour() int64 { return vm.OutBytesPerHour + vm.InBytesPerHour }

// FreeBytesPerHour is the VM's unused capacity BC_b − bw_b (negative only
// in LenientFirstFit mode).
func (vm *VM) FreeBytesPerHour() int64 { return vm.CapacityBytesPerHour - vm.BytesPerHour() }

// NumPairs reports how many topic–subscriber pairs this VM serves.
func (vm *VM) NumPairs() int {
	n := 0
	for _, p := range vm.Placements {
		n += len(p.Subs)
	}
	return n
}

// Allocation is Stage 2's output: the deployed VMs. Capacity is a per-VM
// property (each VM carries its instance type's cap); there is no single
// fleet-wide BC once the fleet is heterogeneous.
//
// Cost, RentalCost, HourlyRentalRate, and TotalBytesPerHour memoize their
// whole-fleet aggregates on first use (the stage-2 portfolio and the
// elastic controller's per-epoch policy checks query them repeatedly), so
// code that mutates VMs or their placements after such a query must call
// InvalidateCost. Every in-repo mutation path builds a fresh Allocation
// (or private VM clones) before its first cost query, so only external
// in-place editors need to care.
type Allocation struct {
	// VMs in deployment order.
	VMs []*VM
	// Fleet records the instance catalog the allocation was packed
	// against, so repairs can deploy matching replacements.
	Fleet pricing.Fleet
	// MessageBytes echoes the config.
	MessageBytes int64

	// Cached whole-fleet aggregates behind the cost methods. The model is
	// not part of the cache: the aggregates (Σ bw_b, Σ hourly rates, and
	// the count of untyped legacy VMs priced at the model's instance) are
	// model-independent, so one pass serves every model.
	aggMu       sync.Mutex
	aggValid    bool
	aggBW       int64
	aggRateSum  int64
	aggFallback int64
}

// aggregates returns (and on first use computes) Σ bw_b, the hourly-rate
// sum of typed VMs, and the count of untyped VMs.
func (a *Allocation) aggregates() (bw, rateSum, fallback int64) {
	a.aggMu.Lock()
	defer a.aggMu.Unlock()
	if !a.aggValid {
		a.aggBW, a.aggRateSum, a.aggFallback = 0, 0, 0
		for _, vm := range a.VMs {
			a.aggBW += vm.BytesPerHour()
			if vm.Instance.Name == "" && vm.Instance.HourlyRate == 0 {
				a.aggFallback++
			} else {
				a.aggRateSum += int64(vm.Instance.HourlyRate)
			}
		}
		a.aggValid = true
	}
	return a.aggBW, a.aggRateSum, a.aggFallback
}

// InvalidateCost drops the memoized cost aggregates. Call it after
// mutating VMs (or their placements) of an allocation whose Cost,
// RentalCost, HourlyRentalRate, or TotalBytesPerHour has already been
// queried.
func (a *Allocation) InvalidateCost() {
	a.aggMu.Lock()
	a.aggValid = false
	a.aggMu.Unlock()
}

// NumVMs reports |B|.
func (a *Allocation) NumVMs() int { return len(a.VMs) }

// TotalBytesPerHour reports Σ_b bw_b.
func (a *Allocation) TotalBytesPerHour() int64 {
	bw, _, _ := a.aggregates()
	return bw
}

// TransferBytes reports the total transfer volume C2 bills for under the
// given model: Σ_b bw_b × rental hours.
func (a *Allocation) TransferBytes(m pricing.Model) int64 {
	return m.TransferBytes(a.TotalBytesPerHour())
}

// RentalCost is the heterogeneous C1: Σ over VMs of the VM's own hourly
// rate over the model's rental duration. A VM without a recorded instance
// type (legacy construction) falls back to the model's instance.
func (a *Allocation) RentalCost(m pricing.Model) pricing.MicroUSD {
	_, rateSum, fallback := a.aggregates()
	return pricing.MicroUSD(m.Hours*rateSum + fallback*m.Hours*int64(m.Instance.HourlyRate))
}

// HourlyRentalRate is RentalCost at one hour: Σ over VMs of the VM's own
// hourly rate (untyped legacy VMs priced at the model's instance) — the
// per-hour form of C1 the elastic controller's keep-vs-adopt policy
// compares every epoch. Like RentalCost it reads the memoized aggregates,
// so per-epoch policy checks stop re-summing the whole fleet.
func (a *Allocation) HourlyRentalRate(m pricing.Model) pricing.MicroUSD {
	_, rateSum, fallback := a.aggregates()
	return pricing.MicroUSD(rateSum + fallback*int64(m.Instance.HourlyRate))
}

// Cost evaluates the paper's objective C1 + C2(Σ bw_b) under the given
// pricing model, with C1 summed per VM so mixed-instance fleets are billed
// at each VM's own rate.
func (a *Allocation) Cost(m pricing.Model) pricing.MicroUSD {
	return a.RentalCost(m) + m.BandwidthCost(a.TransferBytes(m))
}

// InstanceMix counts deployed VMs per instance-type name — the fleet
// composition report behind the heterogeneous experiments.
func (a *Allocation) InstanceMix() map[string]int {
	mix := make(map[string]int)
	for _, vm := range a.VMs {
		mix[vm.Instance.Name]++
	}
	return mix
}

// Result bundles a full solve.
type Result struct {
	Selection  *Selection
	Allocation *Allocation
	// Stage1Time and Stage2Time are wall-clock durations of the stages,
	// reported for the paper's Figs. 4–7 runtime comparisons.
	Stage1Time time.Duration
	Stage2Time time.Duration
}

// Cost evaluates the solution cost under model m.
func (r *Result) Cost(m pricing.Model) pricing.MicroUSD { return r.Allocation.Cost(m) }
