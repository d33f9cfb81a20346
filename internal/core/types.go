// Package core implements the MCSS (Minimum Cost Subscriber Satisfaction)
// heuristic from the ICDCS 2014 paper "Cost-Effective Resource Allocation
// for Deploying Pub/Sub on Cloud": a two-stage solver that first selects a
// bandwidth-minimal subset of topic–subscriber pairs satisfying every
// subscriber (Stage 1) and then packs the selection onto virtual machines of
// bounded bandwidth capacity (Stage 2), minimizing rental plus transfer cost.
//
// Both of the paper's Stage-1 algorithms (GreedySelectPairs and the naive
// RandomSelectPairsContext baseline), both Stage-2 algorithms (First-Fit bin
// packing and CustomBinPackingContext with its four incremental
// optimizations), and the per-instance lower bound (Alg. 5) are provided. See DESIGN.md for the
// mapping from the paper's pseudocode to this package.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// OptFlags toggles CustomBinPackingContext's incremental optimizations,
// matching the ladder of the paper's §IV-D. CBP with zero flags is rung
// (b): grouping of pairs by topic, which is inherent to CBP.
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
	// MessageBytes is the size of one event notification (zero means
	// DefaultMessageBytes).
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
	// Stage1, Stage2, and Solver pick the algorithms. Stage1 selects the
	// pairs (nil runs GreedySelectPairsContext, the paper's GSP); Stage2
	// packs them (nil runs CustomBinPackingContext, the paper's CBP,
	// under Opts) — the whole selection, or each part when a multi-region
	// Topology or a fleet with spot types splits it; a non-nil Solver
	// replaces both stages with one complete solver. Each receives the solve's context and the
	// normalized Config, so it can honor cancellation, Observer, and
	// Parallelism like the built-ins. Stage2 must tolerate concurrent
	// calls when Parallelism asks for a parallel heterogeneous portfolio.
	Stage1 func(ctx context.Context, w *workload.Workload, cfg Config) (*Selection, error)
	Stage2 func(ctx context.Context, sel *Selection, cfg Config) (*Allocation, error)
	Solver func(ctx context.Context, w *workload.Workload, cfg Config) (*Result, error)
	// Opts toggles CBP optimizations (ignored by FFBP).
	Opts OptFlags

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

	// Topology, when non-nil, is the multi-region network (regions, RTT
	// matrix, egress prices). With more than one region, GSP prefers
	// topics published in each subscriber's own region on a tagged
	// workload, Stage 2 routes every selected pair to its cheapest
	// SLO-feasible region and packs each region against that region's
	// fleet types, whatever packer Stage2 names; the heterogeneous
	// portfolio compares members on rental plus egress, and the elastic
	// controller bills egress with it. A region tag at or past
	// NumRegions fails the solve, and so does a fleet type whose Region
	// the topology does not name. Nil or one region is the paper's
	// setting.
	Topology *Topology
	// LatencySLOMillis, when positive, is the per-subscription delivery-
	// latency ceiling in milliseconds: every selected pair's modeled
	// publisher→broker→subscriber RTT must stay at or under it, and Stage
	// 2 fails with ErrInfeasible when some pair has no region that meets
	// it. It binds only under a multi-region Topology and needs one: a
	// positive ceiling with a nil Topology is refused. Zero means no SLO
	// (the paper's setting).
	LatencySLOMillis int64
}

// DefaultMessageBytes is the paper's notification size, 200 bytes for
// both traces: what a zero Config.MessageBytes means.
const DefaultMessageBytes = 200

// DefaultConfig returns the paper's full solution: GSP + CBP with all
// optimizations, DefaultMessageBytes messages, and the given pricing model.
func DefaultConfig(tau int64, m pricing.Model) Config {
	return Config{
		Tau:          tau,
		MessageBytes: DefaultMessageBytes,
		Model:        m,
		Opts:         OptAll,
	}
}

// normalize fills defaulted fields and validates.
func (c Config) normalize() (Config, error) {
	if c.MessageBytes == 0 {
		c.MessageBytes = DefaultMessageBytes
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
	if c.LatencySLOMillis > 0 && c.Topology == nil {
		return c, fmt.Errorf("core: LatencySLOMillis %d needs a Topology", c.LatencySLOMillis)
	}
	if c.Topology != nil && c.Topology.NumRegions() < 1 {
		return c, errors.New("core: topology has no regions")
	}
	for i := 0; i < c.Fleet.Len(); i++ {
		if err := checkInstanceRegion(c.Topology, c.Fleet.Type(i)); err != nil {
			return c, err
		}
	}
	return c, nil
}

// EffectiveFleet reports the fleet a solve under this config packs against:
// Config.Fleet when set, else the one-type fleet of the model's instance.
func (c Config) EffectiveFleet() pricing.Fleet { return c.Model.FleetOr(c.Fleet) }

// Errors returned by the solver.
var (
	// ErrInfeasible reports that the instance has no feasible allocation.
	// Every return wraps it with its cause: a topic too large for one
	// pair on the largest VM, a pair with no SLO-feasible region, or
	// singleton pairs in a region without on-demand capacity.
	ErrInfeasible = errors.New("core: instance infeasible")
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

// FreeBytesPerHour is the VM's unused capacity BC_b − bw_b.
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
type Allocation struct {
	// VMs in deployment order.
	VMs []*VM
	// Fleet records the instance catalog the allocation was packed
	// against, so repairs can deploy matching replacements.
	Fleet pricing.Fleet
	// MessageBytes echoes the config.
	MessageBytes int64
}

// aggregates sums the cost methods' whole-fleet terms in one pass over the
// VMs: Σ bw_b, the hourly-rate sum of typed VMs, and the count of untyped
// legacy VMs priced at the model's instance.
func (a *Allocation) aggregates() (bw, rateSum, fallback int64) {
	for _, vm := range a.VMs {
		bw += vm.BytesPerHour()
		if vm.Instance.Name == "" && vm.Instance.HourlyRate == 0 {
			fallback++
		} else {
			rateSum += int64(vm.Instance.HourlyRate)
		}
	}
	return bw, rateSum, fallback
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
// compares every epoch.
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
