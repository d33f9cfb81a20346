// Benchmarks regenerating every figure of the MCSS paper's evaluation.
// Each BenchmarkFigN corresponds to one paper figure (see DESIGN.md §4);
// run them all with:
//
//	go test -bench=. -benchmem
//
// The workload scale is controlled by MCSS_BENCH_SCALE (default 0.15 of the
// default experiment size, keeping the full suite in the minutes range;
// under -short the default drops to 0.04 so CI stays fast);
// cmd/experiments runs the same drivers at full scale with table output.
// Custom metrics: cost_usd, vms, bw_gb are reported per benchmark so the
// figure's headline numbers appear directly in the benchmark output.
package mcss_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/obs"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/pubsub"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/traceio"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func benchScale() float64 {
	if s := os.Getenv("MCSS_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	if testing.Short() {
		// CI runs with -short: keep the large workloads out of the
		// benchmark compilation smoke-run.
		return 0.04
	}
	return 0.15
}

// benchLadder runs one Fig. 2/3 panel per iteration and reports the full
// solution's headline metrics at τ=10.
func benchLadder(b *testing.B, d experiments.Dataset, inst pricing.InstanceType) {
	b.Helper()
	scale := benchScale()
	var last *experiments.LadderResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLadder(context.Background(), d, inst, scale)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Tau == 10 && row.Rung == "(e) +cost decision" {
			b.ReportMetric(row.CostUSD, "cost_usd")
			b.ReportMetric(float64(row.VMs), "vms")
			b.ReportMetric(row.BandwidthGB, "bw_gb")
		}
	}
	b.ReportMetric(last.Savings(10)*100, "saving_pct_tau10")
	if testing.Verbose() {
		b.Log("\n" + last.Table().String())
	}
}

// BenchmarkFig2aSpotifyC3Large regenerates Fig. 2a: the optimization ladder
// on the Spotify-like trace with c3.large-class capacity.
func BenchmarkFig2aSpotifyC3Large(b *testing.B) {
	benchLadder(b, experiments.Spotify, pricing.C3Large)
}

// BenchmarkFig2bSpotifyC3XLarge regenerates Fig. 2b (c3.xlarge).
func BenchmarkFig2bSpotifyC3XLarge(b *testing.B) {
	benchLadder(b, experiments.Spotify, pricing.C3XLarge)
}

// BenchmarkFig3aTwitterC3Large regenerates Fig. 3a: the ladder on the
// Twitter-like trace with c3.large-class capacity.
func BenchmarkFig3aTwitterC3Large(b *testing.B) {
	benchLadder(b, experiments.Twitter, pricing.C3Large)
}

// BenchmarkFig3bTwitterC3XLarge regenerates Fig. 3b (c3.xlarge).
func BenchmarkFig3bTwitterC3XLarge(b *testing.B) {
	benchLadder(b, experiments.Twitter, pricing.C3XLarge)
}

// benchStage1Runtime reproduces Figs. 4–5: GSP vs RSP wall time per τ.
func benchStage1Runtime(b *testing.B, d experiments.Dataset) {
	b.Helper()
	w, err := experiments.Generate(d, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, tau := range experiments.Taus {
		b.Run(fmt.Sprintf("GSP/tau=%d", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.GreedySelectPairs(w, tau)
			}
		})
		b.Run(fmt.Sprintf("RSP/tau=%d", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RandomSelectPairsContext(context.Background(), w, core.Config{Tau: tau}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Stage1RuntimeSpotify regenerates Fig. 4.
func BenchmarkFig4Stage1RuntimeSpotify(b *testing.B) {
	benchStage1Runtime(b, experiments.Spotify)
}

// BenchmarkFig5Stage1RuntimeTwitter regenerates Fig. 5.
func BenchmarkFig5Stage1RuntimeTwitter(b *testing.B) {
	benchStage1Runtime(b, experiments.Twitter)
}

// benchStage2Runtime reproduces Figs. 6–7: CBP vs FFBP on the same GSP
// selection.
func benchStage2Runtime(b *testing.B, d experiments.Dataset) {
	b.Helper()
	w, err := experiments.Generate(d, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	for _, tau := range experiments.Taus {
		sel := core.GreedySelectPairs(w, tau)
		cbpCfg := core.Config{Tau: tau, MessageBytes: experiments.MessageBytes, Model: model, Opts: core.OptAll}
		ffCfg := core.Config{Tau: tau, MessageBytes: experiments.MessageBytes, Model: model}
		b.Run(fmt.Sprintf("CBP/tau=%d", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CustomBinPackingContext(context.Background(), sel, cbpCfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("FFBP/tau=%d", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.FFBinPackingContext(context.Background(), sel, ffCfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Stage2RuntimeSpotify regenerates Fig. 6.
func BenchmarkFig6Stage2RuntimeSpotify(b *testing.B) {
	benchStage2Runtime(b, experiments.Spotify)
}

// BenchmarkFig7Stage2RuntimeTwitter regenerates Fig. 7.
func BenchmarkFig7Stage2RuntimeTwitter(b *testing.B) {
	benchStage2Runtime(b, experiments.Twitter)
}

// BenchmarkFig8FollowCCDF regenerates Fig. 8 (follower/following CCDFs).
func BenchmarkFig8FollowCCDF(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		ta, err := experiments.RunTraceAnalysis(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		points = len(ta.FollowersCCDF) + len(ta.FollowingsCCDF)
	}
	b.ReportMetric(float64(points), "ccdf_points")
}

// BenchmarkFig9EventRateCCDF regenerates Fig. 9.
func BenchmarkFig9EventRateCCDF(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		ta, err := experiments.RunTraceAnalysis(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		points = len(ta.EventRateCCDF)
	}
	b.ReportMetric(float64(points), "ccdf_points")
}

// BenchmarkFig10RateVsFollowers regenerates Fig. 10.
func BenchmarkFig10RateVsFollowers(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		ta, err := experiments.RunTraceAnalysis(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		points = len(ta.RateVsFollowers)
	}
	b.ReportMetric(float64(points), "buckets")
}

// BenchmarkFig11SCCCDF regenerates Fig. 11.
func BenchmarkFig11SCCCDF(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		ta, err := experiments.RunTraceAnalysis(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		points = len(ta.SCCCDF)
	}
	b.ReportMetric(float64(points), "ccdf_points")
}

// BenchmarkFig12SCVsFollowings regenerates Fig. 12.
func BenchmarkFig12SCVsFollowings(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		ta, err := experiments.RunTraceAnalysis(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		points = len(ta.SCVsFollowings)
	}
	b.ReportMetric(float64(points), "buckets")
}

// --- Ablation and micro benchmarks -----------------------------------------

// BenchmarkAblationStage2Rungs measures every CBP optimization rung
// separately on the same selection — the per-optimization cost data behind
// the §IV-D discussion.
func BenchmarkAblationStage2Rungs(b *testing.B) {
	w, err := experiments.Generate(experiments.Twitter, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	sel := core.GreedySelectPairs(w, 100)
	rungs := []struct {
		name string
		opts core.OptFlags
	}{
		{"group-only", 0},
		{"expensive-first", core.OptExpensiveTopicFirst},
		{"most-free-vm", core.OptExpensiveTopicFirst | core.OptMostFreeVM},
		{"cost-based", core.OptAll},
	}
	for _, rung := range rungs {
		cfg := core.Config{Tau: 100, MessageBytes: experiments.MessageBytes, Model: model, Opts: rung.opts}
		b.Run(rung.name, func(b *testing.B) {
			var alloc *core.Allocation
			for i := 0; i < b.N; i++ {
				var err error
				alloc, err = core.CustomBinPackingContext(context.Background(), sel, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(alloc.NumVMs()), "vms")
			b.ReportMetric(float64(alloc.TotalBytesPerHour()), "bytes_per_hour")
		})
	}
}

// BenchmarkGreedySelectPairs is the Stage-1 hot-path micro benchmark: GSP
// on Twitter ×0.05 across τ, where few picks per subscriber (small τ) and
// most interests taken (large τ) are the two ends of its pick loop; on
// Spotify ×0.25, cold-solve's trace; and on Twitter ×0.05 tagged with three
// regions under a three-region topology, where home topics go first.
func BenchmarkGreedySelectPairs(b *testing.B) {
	twitter, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.05))
	if err != nil {
		b.Fatal(err)
	}
	spotify, err := tracegen.Spotify(tracegen.DefaultSpotifyConfig().Scale(0.25))
	if err != nil {
		b.Fatal(err)
	}
	tagged, err := tracegen.TagRegions(twitter, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	type row struct {
		name string
		w    *workload.Workload
		cfg  core.Config
	}
	var rows []row
	for _, tau := range []int64{10, 100, 1000, 10_000, 100_000} {
		rows = append(rows, row{fmt.Sprintf("twitter/tau=%d", tau), twitter, core.Config{Tau: tau}})
	}
	rows = append(rows,
		row{"spotify/tau=100", spotify, core.Config{Tau: 100}},
		row{"twitter-3-regions/tau=100", tagged, core.Config{Tau: 100, Topology: mcss.SyntheticTopology(3)}})
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GreedySelectPairsContext(context.Background(), r.w, r.cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.w.NumPairs()), "pairs")
		})
	}
}

// BenchmarkLowerBound measures the Alg. 5 bound computation.
func BenchmarkLowerBound(b *testing.B) {
	w, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.05))
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	cfg := core.Config{Tau: 100, MessageBytes: 200, Model: model}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LowerBound(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadConstruction measures CSR assembly from generator output.
func BenchmarkWorkloadConstruction(b *testing.B) {
	cfg := tracegen.DefaultTwitterConfig().Scale(0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracegen.Twitter(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSolve measures the complete pipeline (the paper's §IV-E
// total runtime claim: the full solution is fast enough to re-run
// periodically).
func BenchmarkEndToEndSolve(b *testing.B) {
	for _, d := range []experiments.Dataset{experiments.Spotify, experiments.Twitter} {
		w, err := experiments.Generate(d, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		model := experiments.ModelFor(pricing.C3Large, w)
		cfg := core.DefaultConfig(1000, model)
		b.Run(d.String(), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Solve(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.NumPairs()), "pairs")
			b.ReportMetric(float64(res.Allocation.NumVMs()), "vms")
		})
	}
}

// BenchmarkSolve is the engine without the façade: core.Solve under the
// paper's default config. Together with BenchmarkPlannerSolve it bounds
// the cost of the Planner's context plumbing — CI runs the pair as a smoke
// comparison, and the acceptance bar is ≤ 2% regression of PlannerSolve
// vs Solve (both run the same engine; the ctx checks amortize to one poll
// per 8192 loop units).
func BenchmarkSolve(b *testing.B) {
	w, err := experiments.Generate(experiments.Twitter, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	cfg := core.DefaultConfig(100, model)
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.Solve(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.NumPairs()), "pairs")
	b.ReportMetric(float64(res.Allocation.NumVMs()), "vms")
}

// BenchmarkPlannerSolve is the identical solve through the context-aware
// Planner path (NewPlanner + Solve(ctx, w)); compare against
// BenchmarkSolve to measure the ctx/observer plumbing overhead.
func BenchmarkPlannerSolve(b *testing.B) {
	w, err := experiments.Generate(experiments.Twitter, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	p, err := mcss.NewPlanner(mcss.WithTau(100), mcss.WithModel(model))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	var res *mcss.Result
	for i := 0; i < b.N; i++ {
		res, err = p.Solve(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.NumPairs()), "pairs")
	b.ReportMetric(float64(res.Allocation.NumVMs()), "vms")
}

// BenchmarkPlannerSolveMetrics is BenchmarkPlannerSolve with the full
// metrics observer attached — the registry-overhead guard. Compare against
// BenchmarkPlannerSolve in the same run: the instrumented solve must stay
// within ~2% (the observer only touches the registry at stage completion,
// never inside the per-batch progress path).
func BenchmarkPlannerSolveMetrics(b *testing.B) {
	w, err := experiments.Generate(experiments.Twitter, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	m := obs.NewMetrics(nil)
	p, err := mcss.NewPlanner(mcss.WithTau(100), mcss.WithModel(model),
		mcss.WithObserver(m.Observer()))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	var res *mcss.Result
	for i := 0; i < b.N; i++ {
		res, err = p.Solve(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.NumPairs()), "pairs")
	b.ReportMetric(float64(res.Allocation.NumVMs()), "vms")
}

// BenchmarkSimulate measures the discrete-event simulator's throughput.
func BenchmarkSimulate(b *testing.B) {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 200, Subscribers: 1000, MaxFollowings: 5, MaxRate: 60, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	var maxRate int64
	for t := 0; t < w.NumTopics(); t++ {
		if r := w.Rate(workload.TopicID(t)); r > maxRate {
			maxRate = r
		}
	}
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 8 * maxRate * 200
	cfg := core.DefaultConfig(100, model)
	res, err := core.Solve(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		sim, err := pubsub.Simulate(w, res.Allocation, pubsub.SimConfig{
			DurationHours: 4,
			MessageBytes:  200,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = sim.Events
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkAblationGSPParallel measures the parallel Stage-1 speedup over
// worker counts (Config.Parallelism; the result is identical to serial).
func BenchmarkAblationGSPParallel(b *testing.B) {
	w, err := experiments.Generate(experiments.Twitter, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.Config{Tau: 100, Parallelism: workers}
			for i := 0; i < b.N; i++ {
				if _, err := core.GreedySelectPairsContext(ctx, w, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.NumPairs()), "pairs")
		})
	}
}

// BenchmarkAblationBestFit compares the three pair-granularity packers and
// grouped CBP on one selection; see internal/core/bestfit.go for why BFD is
// an interesting non-paper baseline.
func BenchmarkAblationBestFit(b *testing.B) {
	w, err := experiments.Generate(experiments.Twitter, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	sel := core.GreedySelectPairs(w, 100)
	cfg := core.Config{Tau: 100, MessageBytes: experiments.MessageBytes, Model: model}
	packers := []struct {
		name string
		run  func() (*core.Allocation, error)
	}{
		{"FFBP", func() (*core.Allocation, error) { return core.FFBinPackingContext(context.Background(), sel, cfg) }},
		{"BFD", func() (*core.Allocation, error) { return core.BFDBinPackingContext(context.Background(), sel, cfg) }},
		{"CBP", func() (*core.Allocation, error) {
			c := cfg
			c.Opts = core.OptAll
			return core.CustomBinPackingContext(context.Background(), sel, c)
		}},
	}
	for _, p := range packers {
		b.Run(p.name, func(b *testing.B) {
			var alloc *core.Allocation
			for i := 0; i < b.N; i++ {
				var err error
				alloc, err = p.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(alloc.NumVMs()), "vms")
			b.ReportMetric(float64(alloc.TotalBytesPerHour()), "bytes_per_hour")
		})
	}
}

// BenchmarkPlanApply measures the declarative lifecycle end to end on a
// Twitter-like workload: one Planner.Plan (solve + diff + step extraction
// + fingerprinting) and one Apply (fingerprint check, step replay, target
// verification, adoption) per iteration, bootstrapping from the empty
// cluster. The reported plan_steps and plan_usd make plan size visible
// next to the timing.
func BenchmarkPlanApply(b *testing.B) {
	w, err := experiments.Generate(experiments.Twitter, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	p, err := mcss.NewPlanner(mcss.WithTau(100), mcss.WithModel(model))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var plan *mcss.DeployPlan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err = p.Plan(ctx, w, nil)
		if err != nil {
			b.Fatal(err)
		}
		prov, err := mcss.RestoreProvisioner(mcss.EmptyClusterState(), p.Config())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mcss.Apply(ctx, plan, prov); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(plan.Steps)), "plan_steps")
	b.ReportMetric(plan.CostAfter.USD(), "plan_usd")
}

// BenchmarkPlanApplyIncremental measures the deploy path of one
// steady-state epoch on the scale sweep's workload: PreviewIncremental of
// a 1% churn delta, NewPlan from the live state, and a journaled Apply
// (SyncEvery 8, mcss-plan bodies). Each iteration restores a fresh
// provisioner, warms its index and applies a snapshot of its state to a
// fresh journal untimed — which checkpoints the base and leaves the
// provisioner knowing its fingerprint, as after any journaled epoch — so
// every iteration times the same epoch. plan_steps, journal_bytes and
// fsyncs (counted through JournalHooks.Fsync) size what the epoch writes.
func BenchmarkPlanApplyIncremental(b *testing.B) {
	pairs := int64(160_000)
	if testing.Short() {
		pairs = 20_000
	}
	w, cfg, err := experiments.ChurnSetup(pairs)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Solve(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := experiments.ChurnDelta(rand.New(rand.NewSource(2)), w, 0.01)
	ctx := context.Background()
	dir := b.TempDir()
	var steps int
	var journalBytes, fsyncs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prov := dynamic.Restore(w, res, cfg)
		if _, err := prov.UpdateIncremental(ctx, dynamic.Delta{}); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%d.journal", i))
		var synced int64
		j, err := traceio.OpenJournal(path, deploy.JournalOptions{SyncEvery: 8, Hooks: deploy.JournalHooks{
			Fsync: func(float64) { synced++ },
		}})
		if err != nil {
			b.Fatal(err)
		}
		snap, err := deploy.Snapshot(cfg, deploy.StateOf(prov))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := deploy.Apply(ctx, snap, prov, deploy.WithJournal(j)); err != nil {
			b.Fatal(err)
		}
		base, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		baseSyncs := synced
		b.StartTimer()
		next, cand, stats, err := prov.PreviewIncremental(ctx, d)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Fallback {
			b.Fatal("the delta fell back to a full re-solve; the benchmark would time the solver")
		}
		plan, err := deploy.NewPlan(cfg, deploy.StateOf(prov), deploy.NewState(next, cand.Allocation))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fsyncs = synced - baseSyncs
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		steps, journalBytes = len(plan.Steps), fi.Size()-base.Size()
		b.StartTimer()
	}
	b.ReportMetric(float64(steps), "plan_steps")
	b.ReportMetric(float64(journalBytes), "journal_bytes")
	b.ReportMetric(float64(fsyncs), "fsyncs")
}

// BenchmarkVerify times the one allocation checker in both modes on one
// solved ChurnSetup allocation: exact (VerifyAllocation, the placed pairs
// must be the selection) and serves (VerifyServes, any placement serving
// the workload). Both are one map-free pass, so serves should cost about
// what exact does.
func BenchmarkVerify(b *testing.B) {
	pairs := int64(160_000)
	if testing.Short() {
		pairs = 20_000
	}
	w, cfg, err := experiments.ChurnSetup(pairs)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Solve(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		verify func() error
	}{
		{"exact", func() error { return core.VerifyAllocation(w, res.Selection, res.Allocation, cfg) }},
		{"serves", func() error { return core.VerifyServes(w, res.Allocation, cfg) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mode.verify(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Selection.NumPairs()), "pairs")
		})
	}
}

// BenchmarkIndex times the incremental index build (Allocation.Index:
// CheckPlacements, the pair rows, delivered rates and lower-bound terms)
// on the same solved allocation as BenchmarkVerify: 160k pairs, 20k under
// -short.
func BenchmarkIndex(b *testing.B) {
	pairs := int64(160_000)
	if testing.Short() {
		pairs = 20_000
	}
	w, cfg, err := experiments.ChurnSetup(pairs)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Solve(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Allocation.Index(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Selection.NumPairs()), "pairs")
}

// BenchmarkDiurnalController runs the full three-strategy diurnal
// comparison (24-epoch Twitter-like timeline; static peak, oracle, and
// hysteresis elastic controller) per iteration and reports the headline
// bills.
func BenchmarkDiurnalController(b *testing.B) {
	scale := benchScale()
	var last *experiments.DiurnalResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDiurnal(context.Background(), experiments.Twitter, scale)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Hysteresis.TotalCost().USD(), "elastic_usd")
	b.ReportMetric(last.Static.TotalCost().USD(), "static_usd")
	b.ReportMetric(last.SavingsVsStatic()*100, "savings_pct")
	b.ReportMetric(float64(last.Hysteresis.TotalMoved()), "moved_pairs")
}

// BenchmarkDiurnalWalk times one elastic epoch, Walk.Step, in the
// diurnal-replay benchmark's setting: Twitter ×0.05 modulated into a 96-epoch
// hourly timeline (24 under -short) with modulation seed 1, τ and fleet
// sized on the timeline's envelope, and the default policy with
// incremental epochs. Epoch 0, the bootstrap solve from an empty cluster,
// is stepped untimed, and so is each restart when the walk runs out. The
// apply is in memory, without the benchmark's journal. A CPU profile
// (-cpuprofile) shows where an epoch's time goes.
func BenchmarkDiurnalWalk(b *testing.B) {
	mod := experiments.DiurnalModulation()
	mod.Epochs = 96
	if testing.Short() {
		mod.Epochs = 24
	}
	mod.Seed = 1
	base, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.05))
	if err != nil {
		b.Fatal(err)
	}
	tl, err := tracegen.Diurnal(base, mod)
	if err != nil {
		b.Fatal(err)
	}
	envelope, err := tl.Envelope()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(experiments.DiurnalTau, experiments.ModelFor(pricing.C3Large, envelope))
	cfg.Fleet = experiments.FleetFor(envelope)
	policy := elastic.DefaultPolicy()
	policy.Incremental = true
	ctx := context.Background()
	var wk *elastic.Walk
	start := func() {
		var err error
		if wk, err = elastic.NewController(cfg, policy).Start(ctx, tl); err != nil {
			b.Fatal(err)
		}
		if _, err := wk.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
	start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wk.Done() {
			b.StopTimer()
			start()
			b.StartTimer()
		}
		if _, err := wk.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateIncrementalVsFull measures absorbing one churn delta (2%
// of pairs plus rate changes) through the persistent indexed state versus
// the full two-stage re-solve, on the scale sweep's workload and fleet —
// the benchmark behind BENCH_6.json's headline speedup. Each iteration
// restores a fresh provisioner and warms the index untimed, so the timed
// region is exactly one epoch of delta-proportional work (or one full
// solve).
func BenchmarkUpdateIncrementalVsFull(b *testing.B) {
	pairs := int64(160_000)
	if testing.Short() {
		pairs = 20_000
	}
	w, cfg, err := experiments.ChurnSetup(pairs)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Solve(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Seed 2 is a representative delta the incremental path absorbs without
	// a regret fallback at either bench size (a fallback would silently
	// benchmark the full solver twice); the churn sweep (BENCH_6.json)
	// reports the honest distribution including fallbacks.
	d := experiments.ChurnDelta(rand.New(rand.NewSource(2)), w, 0.02)
	ctx := context.Background()

	b.Run("incremental", func(b *testing.B) {
		var stats dynamic.MigrationStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prov := dynamic.Restore(w, res, cfg)
			if _, err := prov.UpdateIncremental(ctx, dynamic.Delta{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			var err error
			stats, err = prov.UpdateIncremental(ctx, d)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(w.NumPairs()), "pairs")
		b.ReportMetric(float64(stats.PairsMoved), "pairs_moved")
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prov := dynamic.Restore(w, res, cfg)
			b.StartTimer()
			if _, err := prov.UpdateContext(ctx, d); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(w.NumPairs()), "pairs")
	})
}
