package mcss

import (
	"context"
	"errors"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/exact"
	"github.com/pubsub-systems/mcss/internal/spot"
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

// Strategy is a named, pluggable solver implementation: a Stage-1 pair
// selector, a Stage-2 packer, a complete solver, or any combination. The
// built-ins are registered as "gsp"/"greedy", "rsp"/"random" (Stage 1),
// "cbp"/"custom", "ffbp"/"first-fit", "bfd" (Stage 2), and "exact" (full
// solve); register your own with RegisterStrategy and select it with
// WithStage1/WithStage2/WithStrategy.
type Strategy = core.Strategy

// RegisterStrategy adds a named strategy to the registry (case-insensitive
// names; duplicates are an error).
func RegisterStrategy(name string, s Strategy) error { return core.RegisterStrategy(name, s) }

// StrategyByName looks up a registered strategy.
func StrategyByName(name string) (Strategy, bool) { return core.StrategyByName(name) }

// StrategyNames lists the registered strategy names, sorted.
func StrategyNames() []string { return core.StrategyNames() }

// ContextWithObserver returns a context carrying obs: every solver layer
// (solves, lower bounds, the exact DP, elastic runs) falls back to the
// context's observer when no WithObserver/Config.Observer was set. Use it
// to switch on progress reporting across a whole call tree from one place;
// an explicitly configured observer takes precedence.
func ContextWithObserver(ctx context.Context, obs Observer) context.Context {
	return core.ContextWithObserver(ctx, obs)
}

// NopObserver ignores every callback — the explicit-silence observer
// WithObserver(nil) attaches.
var NopObserver = core.NopObserver

// ExactSolution is the exact solver's result type.
type ExactSolution = exact.Solution

// Option configures a Planner under construction.
type Option func(*plannerBuilder)

type plannerBuilder struct {
	cfg        SolverConfig
	tauSet     bool
	modelSet   bool
	stage1Name string
	stage2Name string
	solveName  string
	errs       []error
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

// WithStage1 selects the Stage-1 pair-selection strategy by registered
// name (e.g. "gsp", "rsp"); the default is "gsp".
func WithStage1(name string) Option {
	return func(b *plannerBuilder) { b.stage1Name = name }
}

// WithStage2 selects the Stage-2 packing strategy by registered name
// (e.g. "cbp", "ffbp", "bfd"); the default is "cbp".
func WithStage2(name string) Option {
	return func(b *plannerBuilder) { b.stage2Name = name }
}

// WithStrategy selects a full-solve strategy by registered name (e.g.
// "exact"), replacing both stages.
func WithStrategy(name string) Option {
	return func(b *plannerBuilder) { b.solveName = name }
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

// WithTopology attaches a multi-region network topology: instance types
// and workload endpoints resolve their region tags against it, the "topo"
// strategies partition packing by region, and elastic runs bill
// cross-region egress on top of rental and transfer. A nil topology (the
// default) is the paper's single-region setting.
func WithTopology(t Topology) Option {
	return func(b *plannerBuilder) { b.cfg.Topology = t }
}

// WithLatencySLO caps each subscription's modeled delivery RTT
// (publisher→broker plus broker→subscriber) at millis; the "topo" packer
// only places pairs in SLO-feasible regions and fails with ErrInfeasible
// when none has capacity. Zero (the default) disables the ceiling; only
// meaningful together with WithTopology.
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
// call to obs. Passing nil pins the planner to silence: it attaches
// NopObserver, which also suppresses any ambient observer installed via
// ContextWithObserver.
func WithObserver(obs Observer) Option {
	return func(b *plannerBuilder) {
		if obs == nil {
			obs = NopObserver
		}
		b.cfg.Observer = obs
	}
}

// WithParallelism sets the solver's worker count (Config.Parallelism): 0
// or 1 solve serially, n > 1 uses n goroutines, negative uses GOMAXPROCS.
// It bounds both the Stage-1 subscriber sharding and the Stage-2
// heterogeneous portfolio, whose members then pack concurrently. Results
// are bit-identical regardless.
func WithParallelism(workers int) Option {
	return func(b *plannerBuilder) { b.cfg.Parallelism = workers }
}

// WithLenientFirstFit reproduces the paper's literal Alg. 3 capacity test,
// which may overshoot a VM's capacity by one topic rate.
func WithLenientFirstFit(lenient bool) Option {
	return func(b *plannerBuilder) { b.cfg.LenientFirstFit = lenient }
}

// Planner is the context-aware entry point to the solver stack: build one
// from functional options, then call Solve, LowerBound, SolveExact,
// Provision, or RunTimeline with a context — every long-running path polls
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
// non-positive τ, a zero pricing model, an empty fleet, an unknown or
// role-mismatched strategy name, or a non-positive message size — rather
// than surfacing later from inside a solve.
func NewPlanner(opts ...Option) (*Planner, error) {
	b := &plannerBuilder{}
	b.cfg.Stage1 = Stage1Greedy
	b.cfg.Stage2 = Stage2Custom
	b.cfg.Opts = OptAll
	b.cfg.MessageBytes = 200
	for _, opt := range opts {
		opt(b)
	}
	if !b.tauSet && b.cfg.Tau <= 0 {
		b.addErr("WithTau is required: τ must be a positive event rate")
	}
	if !b.modelSet {
		b.addErr("WithModel is required: the solver needs a pricing model")
	}
	if b.stage1Name != "" {
		s, ok := StrategyByName(b.stage1Name)
		switch {
		case !ok:
			b.addErr("WithStage1: unknown strategy %q (registered: %v)", b.stage1Name, StrategyNames())
		case s.SelectPairs == nil:
			b.addErr("WithStage1: strategy %q has no Stage-1 role", b.stage1Name)
		default:
			b.cfg.Stage1Strategy = s
		}
	}
	if b.stage2Name != "" {
		s, ok := StrategyByName(b.stage2Name)
		switch {
		case !ok:
			b.addErr("WithStage2: unknown strategy %q (registered: %v)", b.stage2Name, StrategyNames())
		case s.Pack == nil:
			b.addErr("WithStage2: strategy %q has no Stage-2 role", b.stage2Name)
		default:
			b.cfg.Stage2Strategy = s
		}
	}
	if b.solveName != "" {
		s, ok := StrategyByName(b.solveName)
		switch {
		case !ok:
			b.addErr("WithStrategy: unknown strategy %q (registered: %v)", b.solveName, StrategyNames())
		case s.Solve == nil:
			b.addErr("WithStrategy: strategy %q has no full-solve role", b.solveName)
		default:
			b.cfg.SolveStrategy = s
		}
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

// SolveExact computes the optimal solution for tiny instances (at most
// ExactMaxPairs pairs), branching over the planner's fleet.
func (p *Planner) SolveExact(ctx context.Context, w *Workload) (ExactSolution, error) {
	return exact.SolveContext(ctx, w, p.cfg)
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

// Plan computes the declarative reconfiguration from current (nil = the
// empty cluster) to the solved spec: a serializable DeployPlan carrying
// the workload diff, the executable step sequence, the forecast cost
// delta, and the fingerprint of the state it was computed against. Enact
// it with Apply before the cluster drifts; persist it for review with
// SavePlan. Spec fields override the planner's τ, message size, fleet, and
// full-solve strategy for this plan only.
func (p *Planner) Plan(ctx context.Context, spec DeploySpec, current *ClusterState) (*DeployPlan, error) {
	return deploy.NewPlanner(p.cfg).Plan(ctx, spec, current)
}

// Diff is Plan without the commitment: it computes and returns only the
// declarative difference (workload delta + placement churn, cost fields
// included) between current and the solved spec — what `mcss diff` prints.
func (p *Planner) Diff(ctx context.Context, spec DeploySpec, current *ClusterState) (DeployDiff, error) {
	plan, err := p.Plan(ctx, spec, current)
	if err != nil {
		return DeployDiff{}, err
	}
	return plan.Diff, nil
}

// RunTimeline walks a workload timeline with an elastic controller under
// the given hysteresis policy, re-solving, scaling, and billing every
// epoch. The context cancels between epochs and inside every per-epoch
// solve; the planner's Observer additionally receives OnEpoch callbacks.
func (p *Planner) RunTimeline(ctx context.Context, tl *Timeline, policy ElasticPolicy) (*ElasticRunReport, error) {
	return elastic.NewController(p.cfg, policy).Run(ctx, tl)
}

// SpotRunConfig parameterizes a chaos-mode timeline run against a spot
// market. The zero value is usable: default schedule knobs, chaos seed 0,
// and a 5-minute modeled repair lag.
type SpotRunConfig struct {
	// Schedule tunes the risk premium and repricing hysteresis (zero =
	// defaults: 2 h repair premium, 5% drift threshold).
	Schedule SpotScheduleConfig
	// ChaosSeed draws the per-VM reclamations against the market's
	// per-epoch probabilities (storms fire regardless of the seed).
	ChaosSeed int64
	// LagMinutes is the modeled detect-and-repair lag charged as lost
	// pair-minutes when a reclamation takes pairs down (0 = 5).
	LagMinutes int64
}

// RunTimelineSpot walks a timeline like RunTimeline but against a spot
// market: every epoch the controller reprices its fleet from the market
// (a price delta alone can force a re-solve), packs with the risk-aware
// spot strategy unless the planner configured another Stage-2 strategy,
// bills reclaimed VMs mid-hour, and repairs correlated reclamation groups
// in place. The market must cover the timeline's epochs.
func (p *Planner) RunTimelineSpot(ctx context.Context, tl *Timeline, policy ElasticPolicy, market *SpotMarket, rc SpotRunConfig) (*ElasticRunReport, error) {
	cfg := p.cfg
	if cfg.Stage2Strategy.Pack == nil && cfg.SolveStrategy.Solve == nil {
		s, ok := StrategyByName(spot.StrategyName)
		if !ok {
			return nil, fmt.Errorf("spot strategy %q not registered", spot.StrategyName)
		}
		cfg.Stage2Strategy = s
	}
	sched, err := spot.NewSchedule(market, cfg.EffectiveFleet(), rc.Schedule)
	if err != nil {
		return nil, err
	}
	chaos, err := spot.NewChaos(market, rc.ChaosSeed)
	if err != nil {
		return nil, err
	}
	ctl := elastic.NewController(cfg, policy)
	ctl.SetFleetSchedule(sched)
	ctl.SetChaos(chaos, rc.LagMinutes)
	return ctl.Run(ctx, tl)
}
