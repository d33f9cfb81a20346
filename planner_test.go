package mcss_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/core"
)

func demoModel() mcss.Model {
	m := mcss.NewModel(mcss.C3Large)
	m.CapacityOverrideBytesPerHour = 150_000
	return m
}

// Every invalid option must surface from NewPlanner as ErrBadOption with a
// message naming the option — not as a panic or a late failure inside a
// solve.
func TestNewPlannerOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []mcss.Option
		want string // substring of the error message
	}{
		{"non-positive tau", []mcss.Option{mcss.WithTau(0), mcss.WithModel(demoModel())}, "WithTau"},
		{"negative tau", []mcss.Option{mcss.WithTau(-5), mcss.WithModel(demoModel())}, "WithTau"},
		{"missing tau", []mcss.Option{mcss.WithModel(demoModel())}, "WithTau is required"},
		{"zero model", []mcss.Option{mcss.WithTau(10), mcss.WithModel(mcss.Model{})}, "WithModel"},
		{"missing model", []mcss.Option{mcss.WithTau(10)}, "WithModel is required"},
		{"empty fleet", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithFleet(mcss.Fleet{})}, "WithFleet"},
		{"unknown stage1", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage1("nope")}, `unknown strategy "nope"`},
		{"stage1 role mismatch", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage1("cbp")}, "no Stage-1 role"},
		{"unknown stage2", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage2("nope")}, `unknown strategy "nope"`},
		{"stage2 role mismatch", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage2("gsp")}, "no Stage-2 role"},
		{"unknown full strategy", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStrategy("nope")}, `unknown strategy "nope"`},
		{"full-solve role mismatch", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStrategy("gsp")}, "no full-solve role"},
		{"non-positive message bytes", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithMessageBytes(0)}, "WithMessageBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := mcss.NewPlanner(tc.opts...)
			if err == nil {
				t.Fatalf("NewPlanner succeeded (%v), want ErrBadOption", p.Config())
			}
			if !errors.Is(err, mcss.ErrBadOption) {
				t.Errorf("error %v does not wrap ErrBadOption", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Multiple bad options are all reported at once.
func TestNewPlannerJoinsAllErrors(t *testing.T) {
	_, err := mcss.NewPlanner(mcss.WithTau(-1), mcss.WithStage1("nope"))
	if err == nil {
		t.Fatal("NewPlanner succeeded with two bad options")
	}
	for _, want := range []string{"WithTau", "WithStage1", "WithModel is required"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q misses %q", err, want)
		}
	}
}

// The Planner's defaults are the paper's full solution: its result must be
// identical to the engine's under core.DefaultConfig.
func TestPlannerMatchesCoreSolve(t *testing.T) {
	w := buildDemo(t)
	p := demoPlanner(t, 40)
	cfg := core.DefaultConfig(40, p.Config().Model)
	old, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selection.NumPairs() != old.Selection.NumPairs() {
		t.Errorf("planner selected %d pairs, Solve selected %d", res.Selection.NumPairs(), old.Selection.NumPairs())
	}
	if res.Allocation.NumVMs() != old.Allocation.NumVMs() {
		t.Errorf("planner packed %d VMs, Solve packed %d", res.Allocation.NumVMs(), old.Allocation.NumVMs())
	}
	if got, want := res.Cost(cfg.Model), old.Cost(cfg.Model); got != want {
		t.Errorf("planner cost %v, Solve cost %v", got, want)
	}
	if err := p.Verify(w, res.Selection, res.Allocation); err != nil {
		t.Errorf("Verify: %v", err)
	}
	lb, err := p.LowerBound(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Cost > res.Cost(cfg.Model) {
		t.Errorf("lower bound %v exceeds solution cost %v", lb.Cost, res.Cost(cfg.Model))
	}
}

// Named strategies dispatch to the same algorithms as the enum config.
func TestPlannerStrategyDispatch(t *testing.T) {
	w := buildDemo(t)
	cfg := demoPlanner(t, 40).Config()
	cfg.Stage1, cfg.Stage2 = mcss.Stage1Random, mcss.Stage2First
	old, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mcss.NewPlanner(
		mcss.WithTau(40), mcss.WithModel(cfg.Model),
		mcss.WithStage1("rsp"), mcss.WithStage2("ffbp"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation.NumVMs() != old.Allocation.NumVMs() ||
		res.Selection.NumPairs() != old.Selection.NumPairs() {
		t.Errorf("strategy dispatch (%d VMs / %d pairs) != enum dispatch (%d VMs / %d pairs)",
			res.Allocation.NumVMs(), res.Selection.NumPairs(),
			old.Allocation.NumVMs(), old.Selection.NumPairs())
	}
}

// A third-party strategy registers once and is selectable by name.
func TestRegisterStrategyThirdParty(t *testing.T) {
	name := "test-select-all"
	err := mcss.RegisterStrategy(name, mcss.Strategy{
		Description: "selects every pair (test helper)",
		SelectPairs: func(ctx context.Context, w *mcss.Workload, cfg mcss.SolverConfig) (*mcss.Selection, error) {
			return mcss.SelectAllPairs(w), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mcss.RegisterStrategy(name, mcss.Strategy{SelectPairs: func(ctx context.Context, w *mcss.Workload, cfg mcss.SolverConfig) (*mcss.Selection, error) {
		return nil, nil
	}}); err == nil {
		t.Error("duplicate registration succeeded, want error")
	}
	w := buildDemo(t)
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(demoModel()), mcss.WithStage1(name))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selection.NumPairs() != w.NumPairs() {
		t.Errorf("select-all strategy selected %d of %d pairs", res.Selection.NumPairs(), w.NumPairs())
	}
	found := false
	for _, n := range mcss.StrategyNames() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Errorf("StrategyNames() = %v misses %q", mcss.StrategyNames(), name)
	}
}

// WithStrategy("exact") runs the optimal solver end to end through the
// Planner and can never cost more than the heuristic.
func TestPlannerExactStrategy(t *testing.T) {
	w, err := mcss.NewWorkloadBuilder().
		AddTopic("a", 30).AddTopic("b", 20).AddTopic("c", 10).
		AddSubscription("u1", "a").AddSubscription("u1", "b").
		AddSubscription("u2", "b").AddSubscription("u2", "c").
		AddSubscription("u3", "a").AddSubscription("u3", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mcss.NewModel(mcss.C3Large)
	m.CapacityOverrideBytesPerHour = 40_000
	heur, err := mcss.NewPlanner(mcss.WithTau(25), mcss.WithModel(m), mcss.WithMessageBytes(200))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := mcss.NewPlanner(mcss.WithTau(25), mcss.WithModel(m), mcss.WithMessageBytes(200), mcss.WithStrategy("exact"))
	if err != nil {
		t.Fatal(err)
	}
	hres, err := heur.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := ex.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if eres.Cost(m) > hres.Cost(m) {
		t.Errorf("exact strategy cost %v exceeds heuristic %v", eres.Cost(m), hres.Cost(m))
	}
	if err := ex.Verify(w, eres.Selection, eres.Allocation); err != nil {
		t.Errorf("exact result fails verification: %v", err)
	}
}

// stageRecorder records observer callbacks; safe for concurrent use.
type stageRecorder struct {
	mu     sync.Mutex
	starts []string
	dones  []string
	epochs int
}

func (r *stageRecorder) OnStageStart(stage string, total int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, stage)
}
func (r *stageRecorder) OnProgress(stage string, done, total int64) {}
func (r *stageRecorder) OnStageDone(stage string, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dones = append(r.dones, stage)
}
func (r *stageRecorder) OnEpoch(epoch, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs++
}

// The Observer sees both stages bracketed, in order.
func TestPlannerObserverStages(t *testing.T) {
	w := buildDemo(t)
	rec := &stageRecorder{}
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(demoModel()), mcss.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if len(rec.starts) != 2 || rec.starts[0] != "stage1" || rec.starts[1] != "stage2" {
		t.Errorf("stage starts = %v, want [stage1 stage2]", rec.starts)
	}
	if len(rec.dones) != 2 || rec.dones[0] != "stage1" || rec.dones[1] != "stage2" {
		t.Errorf("stage dones = %v, want [stage1 stage2]", rec.dones)
	}
}

// A cancelled context aborts Planner.Solve with context.Canceled.
func TestPlannerSolveCancelled(t *testing.T) {
	w := buildDemo(t)
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(demoModel()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Solve(ctx, w); !errors.Is(err, context.Canceled) {
		t.Errorf("Solve err = %v, want context.Canceled", err)
	}
	if _, err := p.LowerBound(ctx, w); !errors.Is(err, context.Canceled) {
		t.Errorf("LowerBound err = %v, want context.Canceled", err)
	}
	if _, err := p.Provision(ctx, w); !errors.Is(err, context.Canceled) {
		t.Errorf("Provision err = %v, want context.Canceled", err)
	}
}

// RunTimeline drives the elastic controller through the Planner, reporting
// an OnEpoch callback per epoch, and honors cancellation.
func TestPlannerRunTimeline(t *testing.T) {
	base := buildDemo(t)
	day := mcss.DefaultDiurnalTrace()
	day.Epochs, day.FlashEpoch = 6, -1
	tl, err := mcss.GenerateDiurnal(base, day)
	if err != nil {
		t.Fatal(err)
	}
	rec := &stageRecorder{}
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(demoModel()), mcss.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.RunTimeline(context.Background(), tl, mcss.DefaultElasticPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != tl.NumEpochs() {
		t.Errorf("report covers %d epochs, timeline has %d", len(rep.Epochs), tl.NumEpochs())
	}
	if rec.epochs != tl.NumEpochs() {
		t.Errorf("observer saw %d OnEpoch callbacks, want %d", rec.epochs, tl.NumEpochs())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunTimeline(ctx, tl, mcss.DefaultElasticPolicy()); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTimeline err = %v, want context.Canceled", err)
	}
}

// RunTimelineSpot walks a timeline against a generated spot market through
// the Planner: the fleet reprices per epoch, chaos reclamations are billed
// on the run's ledger, and the defaulted risk-aware strategy still serves
// every epoch.
func TestPlannerRunTimelineSpot(t *testing.T) {
	base := buildDemo(t)
	day := mcss.DefaultDiurnalTrace()
	day.Epochs, day.FlashEpoch = 6, -1
	tl, err := mcss.GenerateDiurnal(base, day)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mcss.NewPlanner(mcss.WithTau(40), mcss.WithModel(demoModel()))
	if err != nil {
		t.Fatal(err)
	}

	mcfg := mcss.DefaultSpotMarketConfig()
	mcfg.Epochs = tl.NumEpochs()
	mcfg.EpochMinutes = tl.EpochMinutes
	mcfg.BaseReclaimProb = 0.3 // hot market: reclamations certain at demo size
	mcfg.Seed = 7
	market, err := mcss.GenerateSpotMarket(p.Config().EffectiveFleet(), mcfg)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := p.RunTimelineSpot(context.Background(), tl, mcss.DefaultElasticPolicy(),
		market, mcss.SpotRunConfig{ChaosSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != tl.NumEpochs() {
		t.Fatalf("report covers %d epochs, timeline has %d", len(rep.Epochs), tl.NumEpochs())
	}
	reclaimed, repriced := 0, 0
	for _, ep := range rep.Epochs {
		reclaimed += ep.ReclaimedVMs
		if ep.Repriced {
			repriced++
		}
	}
	if repriced == 0 {
		t.Error("no price epoch over a volatile market")
	}
	if got := rep.Ledger.ReclaimedVMs(); got != int64(reclaimed) {
		t.Errorf("ledger billed %d reclamations, epoch reports carry %d", got, reclaimed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunTimelineSpot(ctx, tl, mcss.DefaultElasticPolicy(),
		market, mcss.SpotRunConfig{}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTimelineSpot err = %v, want context.Canceled", err)
	}
}
