package mcss_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/spot"
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
		// A name resolves only in its own stage's table: an alias, a name
		// of another stage and an unknown name all fail, and the error
		// lists the stage's names.
		{"unknown stage1", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage1("nope")}, `WithStage1: unknown strategy "nope" (want one of gsp, rsp)`},
		{"stage1 alias", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage1("greedy")}, `WithStage1: unknown strategy "greedy" (want one of gsp, rsp)`},
		{"stage1 role mismatch", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage1("cbp")}, `WithStage1: unknown strategy "cbp" (want one of gsp, rsp)`},
		{"unknown stage2", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage2("nope")}, `WithStage2: unknown strategy "nope" (want one of bfd, cbp, ffbp)`},
		{"stage2 alias", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage2("first-fit")}, `WithStage2: unknown strategy "first-fit" (want one of bfd, cbp, ffbp)`},
		{"stage2 role mismatch", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStage2("gsp")}, `WithStage2: unknown strategy "gsp" (want one of bfd, cbp, ffbp)`},
		{"unknown full strategy", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStrategy("nope")}, `WithStrategy: unknown strategy "nope" (want one of exact)`},
		{"full-solve role mismatch", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithStrategy("gsp")}, `WithStrategy: unknown strategy "gsp" (want one of exact)`},
		{"non-positive message bytes", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithMessageBytes(0)}, "WithMessageBytes"},
		// A latency ceiling needs the topology whose RTTs it bounds.
		{"slo without topology", []mcss.Option{mcss.WithTau(10), mcss.WithModel(demoModel()), mcss.WithLatencySLO(50)}, "WithLatencySLO: a 50 ms ceiling needs WithTopology"},
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
	// Every name the CLI help lists resolves for its own stage, in any
	// letter case.
	for _, tc := range []struct {
		option string
		with   func(string) mcss.Option
		names  []string
	}{
		{"WithStage1", mcss.WithStage1, []string{"gsp", "rsp"}},
		{"WithStage2", mcss.WithStage2, []string{"cbp", "ffbp", "bfd"}},
		{"WithStrategy", mcss.WithStrategy, []string{"exact"}},
	} {
		for _, name := range tc.names {
			for _, spelled := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
				if _, err := mcss.NewPlanner(mcss.WithTau(10), mcss.WithModel(demoModel()), tc.with(spelled)); err != nil {
					t.Errorf("%s(%q): %v", tc.option, spelled, err)
				}
			}
		}
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
	old, err := core.SolveContext(context.Background(), w, cfg)
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
	// A placement outside the workload is reported, not a panic.
	vm := res.Allocation.VMs[0]
	vm.Placements = append(vm.Placements, mcss.TopicPlacement{Topic: mcss.TopicID(w.NumTopics() + 5), Subs: vm.Placements[0].Subs[:1]})
	if err := p.Verify(w, res.Selection, res.Allocation); err == nil || !strings.Contains(err.Error(), "outside the workload") {
		t.Errorf("Verify of a topic outside the workload: %v", err)
	}
	vm.Placements = vm.Placements[:len(vm.Placements)-1]
	lb, err := p.LowerBound(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Cost > res.Cost(cfg.Model) {
		t.Errorf("lower bound %v exceeds solution cost %v", lb.Cost, res.Cost(cfg.Model))
	}
}

// Strategy names resolve to the same functions the config takes directly.
func TestPlannerStrategyDispatch(t *testing.T) {
	w := buildDemo(t)
	cfg := demoPlanner(t, 40).Config()
	cfg.Stage1, cfg.Stage2 = core.RandomSelectPairsContext, core.FFBinPackingContext
	want, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := demoPlanner(t, 40, mcss.WithStage1("rsp"), mcss.WithStage2("ffbp"))
	got, err := p.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if g, d := dynamic.StateFingerprint(w, got.Allocation), dynamic.StateFingerprint(w, want.Allocation); g != d {
		t.Errorf("named strategies fingerprint %s, direct functions %s", g, d)
	}
}

// Nil stages run the paper's GSP + CBP: a bare config with only the
// required fields, DefaultConfig, and a default Planner all produce the
// same allocation.
func TestNilStagesRunGSPAndCBP(t *testing.T) {
	w := buildDemo(t)
	p := demoPlanner(t, 40)
	model := p.Config().Model
	want, err := p.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]core.Config{
		"bare":          {Tau: 40, MessageBytes: 200, Model: model, Opts: core.OptAll},
		"DefaultConfig": core.DefaultConfig(40, model),
	} {
		got, err := core.SolveContext(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g, d := dynamic.StateFingerprint(w, got.Allocation), dynamic.StateFingerprint(w, want.Allocation); g != d {
			t.Errorf("%s: fingerprint %s, default planner %s", name, g, d)
		}
	}
}

// A nil topology is no topology: WithTopology((*Topology)(nil)) solves the
// paper's single-region problem, region tags and all, instead of
// dereferencing it.
func TestNilTopologySolvesSingleRegion(t *testing.T) {
	w, err := mcss.TagRegions(buildDemo(t), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := demoPlanner(t, 40).Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	p := demoPlanner(t, 40, mcss.WithTopology((*mcss.Topology)(nil)), mcss.WithLatencySLO(0))
	got, err := p.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if g, d := dynamic.StateFingerprint(w, got.Allocation), dynamic.StateFingerprint(w, want.Allocation); g != d {
		t.Errorf("nil topology fingerprint %s, no topology %s", g, d)
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

// The Observer sees both stages bracketed once each, in order: for the
// paper's default, under a multi-region topology (region-split stage 2),
// on a spot fleet with a selection of singleton topics only, and under a
// multi-region topology whose fleet offers spot variants (split by region,
// then by replication).
func TestPlannerObserverStages(t *testing.T) {
	net := core.SyntheticTopology(3)
	regional, err := core.RegionalFleet(demoModel().SingleFleet(), net)
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := mcss.TagRegions(buildDemo(t), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := demoModel().SingleFleet()
	market, err := mcss.GenerateSpotMarket(base, spot.DefaultMarketConfig())
	if err != nil {
		t.Fatal(err)
	}
	spotFleet, err := market.FleetAt(base, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	regionalMarket, err := mcss.GenerateSpotMarket(regional, spot.DefaultMarketConfig())
	if err != nil {
		t.Fatal(err)
	}
	regionalSpot, err := regionalMarket.FleetAt(regional, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := mcss.NewWorkloadBuilder()
	for i := 0; i < 10; i++ {
		topic := fmt.Sprintf("t%d", i)
		b.AddTopic(topic, 10).AddSubscription(fmt.Sprintf("v%d", i), topic)
	}
	singletons, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		w    *mcss.Workload
		opts []mcss.Option
	}{
		{"default", buildDemo(t), nil},
		{"topo multi-region", tagged, []mcss.Option{mcss.WithTopology(net), mcss.WithFleet(regional)}},
		{"spot singletons", singletons, []mcss.Option{mcss.WithFleet(spotFleet)}},
		{"topo × spot", tagged, []mcss.Option{mcss.WithTopology(net), mcss.WithFleet(regionalSpot)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &stageRecorder{}
			opts := append([]mcss.Option{mcss.WithTau(40), mcss.WithModel(demoModel()), mcss.WithObserver(rec)}, tc.opts...)
			p, err := mcss.NewPlanner(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Solve(context.Background(), tc.w); err != nil {
				t.Fatal(err)
			}
			if len(rec.starts) != 2 || rec.starts[0] != "stage1" || rec.starts[1] != "stage2" {
				t.Errorf("stage starts = %v, want [stage1 stage2]", rec.starts)
			}
			if len(rec.dones) != 2 || rec.dones[0] != "stage1" || rec.dones[1] != "stage2" {
				t.Errorf("stage dones = %v, want [stage1 stage2]", rec.dones)
			}
		})
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

	mcfg := spot.DefaultMarketConfig()
	mcfg.Epochs = tl.NumEpochs()
	mcfg.EpochMinutes = tl.EpochMinutes
	mcfg.BaseReclaimProb = 0.3 // hot market: reclamations certain at demo size
	mcfg.Seed = 7
	market, err := mcss.GenerateSpotMarket(p.Config().EffectiveFleet(), mcfg)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := p.RunTimelineSpot(context.Background(), tl, mcss.DefaultElasticPolicy(),
		market, 5)
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
		market, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTimelineSpot err = %v, want context.Canceled", err)
	}
}
