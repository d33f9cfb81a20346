package mcss

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/exact"
)

// ErrBadOption reports an invalid Planner option; every validation failure
// from NewPlanner wraps it, so callers can errors.Is against one sentinel
// while the message names the offending option.
var ErrBadOption = errors.New("mcss: bad planner option")

// Observer receives progress callbacks from long-running Planner calls:
// OnStageStart/OnProgress/OnStageDone bracket each solver stage (pair
// selection, packing, lower bound, exact DP) and OnEpoch fires after each
// timeline epoch of an elastic run. See core.Observer for the full
// contract; implementations must be cheap and need not be goroutine-safe
// (callbacks fire from the calling goroutine).
type Observer = core.Observer

// ContextWithObserver returns a context carrying obs: every solver layer
// (solves, lower bounds, the exact DP, elastic runs) falls back to the
// context's observer when no WithObserver/Config.Observer was set. Use it
// to switch on progress reporting across a whole call tree from one place;
// an explicitly configured observer takes precedence.
func ContextWithObserver(ctx context.Context, obs Observer) context.Context {
	return core.ContextWithObserver(ctx, obs)
}

// Option configures a Planner under construction.
type Option func(*plannerBuilder)

type plannerBuilder struct {
	cfg      SolverConfig
	tauSet   bool
	modelSet bool
	errs     []error
}

func (b *plannerBuilder) addErr(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("%w: "+format, append([]any{ErrBadOption}, args...)...))
}

// WithTau sets the satisfaction threshold τ in events per hour (required,
// must be positive).
func WithTau(tau int64) Option {
	return func(b *plannerBuilder) {
		b.tauSet = true // the option was supplied, even if invalid
		if tau <= 0 {
			b.addErr("WithTau: τ must be positive, got %d", tau)
			return
		}
		b.cfg.Tau = tau
	}
}

// WithModel sets the pricing model (required): rental duration, transfer
// pricing, and — for single-type solves — the VM capacity.
func WithModel(m Model) Option {
	return func(b *plannerBuilder) {
		if m == (Model{}) {
			b.addErr("WithModel: model is the zero value (build one with NewModel)")
			return
		}
		b.cfg.Model = m
		b.modelSet = true
	}
}

// WithFleet lets Stage 2 mix instance sizes from the given heterogeneous
// fleet; the fleet must not be empty.
func WithFleet(f Fleet) Option {
	return func(b *plannerBuilder) {
		if f.IsZero() || f.Len() == 0 {
			b.addErr("WithFleet: fleet is empty")
			return
		}
		b.cfg.Fleet = f
	}
}

// The strategy names WithStage1, WithStage2 and WithStrategy accept, one
// fixed table per stage, matched case-insensitively. Code that wants a
// stage of its own sets SolverConfig's Stage1, Stage2 or Solver directly.
var (
	stage1Names = map[string]func(context.Context, *Workload, SolverConfig) (*Selection, error){
		"gsp": core.GreedySelectPairsContext,
		"rsp": core.RandomSelectPairsContext,
	}
	stage2Names = map[string]func(context.Context, *Selection, SolverConfig) (*Allocation, error){
		"cbp":  core.CustomBinPackingContext,
		"ffbp": core.FFBinPackingContext,
		"bfd":  core.BFDBinPackingContext,
	}
	solverNames = map[string]func(context.Context, *Workload, SolverConfig) (*Result, error){
		"exact": exact.SolveResult,
	}
)

// lookupName resolves name in one stage's table: an empty name selects
// the stage's default (a nil function), and an unknown name is an option
// error listing the names the stage knows.
func lookupName[F any](b *plannerBuilder, option, name string, table map[string]F) F {
	key := strings.ToLower(strings.TrimSpace(name))
	f, ok := table[key]
	if !ok && key != "" {
		b.addErr("%s: unknown strategy %q (want one of %s)", option, name, strings.Join(slices.Sorted(maps.Keys(table)), ", "))
	}
	return f
}

// WithStage1 selects the Stage-1 pair selection by name: "gsp" (the
// default, the paper's greedy) or "rsp" (its random baseline).
func WithStage1(name string) Option {
	return func(b *plannerBuilder) { b.cfg.Stage1 = lookupName(b, "WithStage1", name, stage1Names) }
}

// WithStage2 selects the Stage-2 packing by name: "cbp" (the default, the
// paper's CustomBinPacking under WithOptFlags), "ffbp" (first fit) or
// "bfd" (best fit decreasing).
func WithStage2(name string) Option {
	return func(b *plannerBuilder) { b.cfg.Stage2 = lookupName(b, "WithStage2", name, stage2Names) }
}

// WithStrategy selects a full solver by name, replacing both stages:
// "exact", the optimal DP for instances of at most 14 pairs.
func WithStrategy(name string) Option {
	return func(b *plannerBuilder) { b.cfg.Solver = lookupName(b, "WithStrategy", name, solverNames) }
}

// WithOptFlags toggles CustomBinPacking's optimizations; the default is
// OptAll.
func WithOptFlags(f OptFlags) Option {
	return func(b *plannerBuilder) { b.cfg.Opts = f }
}

// WithMessageBytes sets the notification size in bytes; the default is the
// paper's 200.
func WithMessageBytes(n int64) Option {
	return func(b *plannerBuilder) {
		if n <= 0 {
			b.addErr("WithMessageBytes: size must be positive, got %d", n)
			return
		}
		b.cfg.MessageBytes = n
	}
}

// WithTopology attaches a network topology: instance types and workload
// endpoints resolve their region tags against it, and elastic runs bill
// cross-region egress on top of rental and transfer. With more than one
// region, Stage 2 routes every pair to its cheapest SLO-feasible region
// and packs each region against that region's fleet types, whatever
// packer is configured. A nil topology (the default) is the paper's
// single-region setting.
func WithTopology(t *Topology) Option {
	return func(b *plannerBuilder) { b.cfg.Topology = t }
}

// WithLatencySLO caps each subscription's modeled delivery RTT
// (publisher→broker plus broker→subscriber) at millis; Stage 2 only
// places pairs in SLO-feasible regions and fails with ErrInfeasible when
// none has capacity. Zero (the default) disables the ceiling. A positive
// ceiling needs WithTopology, and binds only when it has several regions.
func WithLatencySLO(millis int64) Option {
	return func(b *plannerBuilder) {
		if millis < 0 {
			b.addErr("WithLatencySLO: ceiling must be non-negative, got %d", millis)
			return
		}
		b.cfg.LatencySLOMillis = millis
	}
}

// WithObserver streams progress callbacks from every long-running Planner
// call to obs. Passing nil pins the planner to silence: it attaches a
// no-op observer, which also suppresses any ambient observer installed via
// ContextWithObserver.
func WithObserver(obs Observer) Option {
	return func(b *plannerBuilder) {
		if obs == nil {
			obs = core.NopObserver
		}
		b.cfg.Observer = obs
	}
}

// Planner is the context-aware entry point to the solver stack: build one
// from functional options, then call Solve, LowerBound, Provision, Plan,
// or RunTimeline with a context — every long-running path polls
// cancellation at bounded intervals and reports progress to the configured
// Observer. A Planner is immutable after construction and safe for
// concurrent use as long as its Observer is (the built-in paths call the
// Observer from the calling goroutine only).
//
//	p, err := mcss.NewPlanner(
//	        mcss.WithTau(100),
//	        mcss.WithModel(mcss.NewModel(mcss.C3Large)),
//	        mcss.WithFleet(mcss.CatalogFleet()),
//	)
//	res, err := p.Solve(ctx, w)
type Planner struct {
	cfg SolverConfig
}

// NewPlanner validates the options and builds a Planner. All validation
// failures are reported up front (joined, each wrapping ErrBadOption):
// non-positive τ, a zero pricing model, an empty fleet, a strategy name
// its stage does not know, a non-positive message size, or a latency SLO
// without a topology — rather than surfacing later from inside a solve.
func NewPlanner(opts ...Option) (*Planner, error) {
	b := &plannerBuilder{}
	b.cfg.Opts = OptAll
	b.cfg.MessageBytes = core.DefaultMessageBytes
	for _, opt := range opts {
		opt(b)
	}
	if !b.tauSet && b.cfg.Tau <= 0 {
		b.addErr("WithTau is required: τ must be a positive event rate")
	}
	if !b.modelSet {
		b.addErr("WithModel is required: the solver needs a pricing model")
	}
	if b.cfg.LatencySLOMillis > 0 && b.cfg.Topology == nil {
		b.addErr("WithLatencySLO: a %d ms ceiling needs WithTopology", b.cfg.LatencySLOMillis)
	}
	if b.modelSet && b.cfg.Fleet.IsZero() && b.cfg.Model.CapacityBytesPerHour() <= 0 {
		b.addErr("WithModel: model has no positive VM capacity and no fleet was given")
	}
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	return &Planner{cfg: b.cfg}, nil
}

// Config returns a copy of the planner's underlying solver configuration —
// the bridge for code still consuming SolverConfig-based APIs.
func (p *Planner) Config() SolverConfig { return p.cfg }

// Solve runs the two-stage MCSS heuristic (or the configured full-solve
// strategy). Cancellation is polled at bounded intervals inside every
// stage's hot loop; on cancellation Solve returns ctx.Err() promptly.
func (p *Planner) Solve(ctx context.Context, w *Workload) (*Result, error) {
	return core.SolveContext(ctx, w, p.cfg)
}

// LowerBound computes the fleet-aware Alg. 5 lower bound.
func (p *Planner) LowerBound(ctx context.Context, w *Workload) (Bound, error) {
	return core.LowerBoundContext(ctx, w, p.cfg)
}

// Verify checks the solver postconditions (satisfaction, capacity,
// accounting, consistency) for a result obtained under this planner's
// configuration and returns the first violation.
func (p *Planner) Verify(w *Workload, sel *Selection, alloc *Allocation) error {
	return core.VerifyAllocation(w, sel, alloc, p.cfg)
}

// Provision solves the initial allocation and returns an online
// provisioner that keeps it current across workload deltas and failures.
func (p *Planner) Provision(ctx context.Context, w *Workload) (*Provisioner, error) {
	return dynamic.NewContext(ctx, w, p.cfg)
}

// Plan solves w and computes the declarative reconfiguration from current
// (nil = the empty cluster) to the solved allocation: a serializable
// DeployPlan carrying the workload diff, the executable step sequence, the
// forecast cost delta, and the fingerprint of the state it was computed
// against. Enact it with Apply before the cluster drifts; persist it for
// review with SavePlan. w must extend current's workload (IDs stable,
// counts may only grow), the contract timelines and deltas obey.
func (p *Planner) Plan(ctx context.Context, w *Workload, current *ClusterState) (*DeployPlan, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: no workload to plan for", ErrInvalidPlan)
	}
	res, err := core.SolveContext(ctx, w, p.cfg)
	if err != nil {
		return nil, err
	}
	return deploy.NewPlan(p.cfg, current, deploy.NewState(w, res.Allocation))
}

// RunTimeline walks a workload timeline with an elastic controller under
// the given hysteresis policy, re-solving, scaling, and billing every
// epoch. The context cancels between epochs and inside every per-epoch
// solve; the planner's Observer additionally receives OnEpoch callbacks.
func (p *Planner) RunTimeline(ctx context.Context, tl *Timeline, policy ElasticPolicy) (*ElasticRunReport, error) {
	return elastic.NewController(p.cfg, policy).Run(ctx, tl)
}

// RunTimelineSpot walks a timeline like RunTimeline but against a spot
// market: every epoch the controller reprices its fleet from the market
// (a price delta alone can force a re-solve), bills reclaimed VMs
// mid-hour, and repairs correlated reclamation groups in place, charging
// each reclaimed pair a 5-minute repair lag. The repriced fleet offers
// spot variants, so every full solve pins single-subscriber topics to
// on-demand types while replicated topics may ride the discount. The
// market must cover the timeline's epochs. chaosSeed draws the per-VM
// reclamations against the market's per-epoch probabilities (storms fire
// regardless of the seed).
func (p *Planner) RunTimelineSpot(ctx context.Context, tl *Timeline, policy ElasticPolicy, market *SpotMarket, chaosSeed int64) (*ElasticRunReport, error) {
	ctl := elastic.NewController(p.cfg, policy)
	if err := ctl.SetSpotMarket(market, chaosSeed); err != nil {
		return nil, err
	}
	return ctl.Run(ctx, tl)
}
