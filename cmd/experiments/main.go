// Command experiments regenerates the figures of the MCSS paper's
// evaluation (§IV and Appendix D) on the synthetic traces and prints them
// as tables; -outdir additionally writes CSV files per figure.
//
// Examples:
//
//	experiments -fig 3a                 # one panel of Fig. 3
//	experiments -fig all -scale 0.5     # everything, half-scale
//	experiments -fig summary            # paper-vs-measured savings table
//	experiments -fig all -outdir results/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/pubsub-systems/mcss/internal/cli"
	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/obs"
	"github.com/pubsub-systems/mcss/internal/obs/slogx"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/stats"
)

func main() {
	os.Exit(cli.ExitCode("experiments", run(os.Args[1:]), os.Stderr))
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure: 2a 2b 3a 3b 4 5 6 7 8 9 10 11 12, all, summary, hetero, diurnal, spot, latency, ablation, scaling, or scale")
		scale    = fs.Float64("scale", 1.0, "workload scale factor")
		outdir   = fs.String("outdir", "", "write CSV files (and -fig scale's BENCH_5.json) to this directory")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		progress = fs.Bool("progress", false, "stream per-stage solver progress to stderr")
		sizes    = fs.String("sizes", "", "comma-separated pair counts for -fig scale (default: the full 10k→1.28M sweep)")
		churn    = fs.Bool("churn", false, "with -fig scale: run the incremental-vs-full churn sweep (BENCH_6.json) instead of the stage-2 sweep")
		short    = fs.Bool("short", false, "CI smoke mode: cap the workload scale of figures that support it (currently latency)")

		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics on this address for the life of the run")
		metricsDump = fs.String("metrics-dump", "", "write the final metrics registry as JSON (relative paths land in -outdir, next to the BENCH output)")
	)
	logLevel := slogx.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Setup(os.Stderr, *logLevel)
	ctx, stop := cli.Context(*timeout)
	defer stop()

	m := obs.NewMetrics(nil)
	if *metricsAddr != "" {
		addr, stopMetrics, err := obs.ServeMetrics(*metricsAddr, m.Registry)
		if err != nil {
			return err
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "serving metrics on %s\n", addr)
	}
	watchers := []core.Observer{m.Observer()}
	if *progress {
		watchers = append(watchers, report.NewProgress(os.Stderr))
	}
	ctx = core.ContextWithObserver(ctx, obs.Tee(watchers...))
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	scaleSizes, err := parseSizes(*sizes)
	if err != nil {
		return err
	}

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = []string{"2a", "2b", "3a", "3b", "4", "5", "6", "7", "8", "9", "10", "11", "12", "summary", "hetero", "diurnal"}
	}
	for _, f := range figs {
		start := time.Now()
		if err := runFig(ctx, strings.TrimSpace(f), *scale, *outdir, scaleSizes, *churn, *short); err != nil {
			// Wrapping preserves the figure prefix while cli.ExitCode's
			// errors.Is still recognizes a cancellation/deadline inside.
			return fmt.Errorf("fig %s: %w", f, err)
		}
		fmt.Fprintf(os.Stderr, "[fig %s done in %s]\n\n", f, time.Since(start).Round(time.Millisecond))
	}
	// A relative -metrics-dump path lands in -outdir, next to the BENCH
	// output.
	dump := *metricsDump
	if dump != "" && *outdir != "" && !filepath.IsAbs(dump) {
		dump = filepath.Join(*outdir, dump)
	}
	return cli.DumpMetrics(m, dump)
}

// parseSizes parses the -sizes flag into pair counts; empty means the
// full default sweep.
func parseSizes(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sizes entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func runFig(ctx context.Context, fig string, scale float64, outdir string, sizes []int64, churn, short bool) error {
	switch fig {
	case "2a":
		return ladder(ctx, experiments.Spotify, pricing.C3Large, scale, outdir, "fig2a")
	case "2b":
		return ladder(ctx, experiments.Spotify, pricing.C3XLarge, scale, outdir, "fig2b")
	case "3a":
		return ladder(ctx, experiments.Twitter, pricing.C3Large, scale, outdir, "fig3a")
	case "3b":
		return ladder(ctx, experiments.Twitter, pricing.C3XLarge, scale, outdir, "fig3b")
	case "4":
		return stage1Runtime(ctx, experiments.Spotify, scale, outdir, "fig4")
	case "5":
		return stage1Runtime(ctx, experiments.Twitter, scale, outdir, "fig5")
	case "6":
		return stage2Runtime(ctx, experiments.Spotify, scale, outdir, "fig6")
	case "7":
		return stage2Runtime(ctx, experiments.Twitter, scale, outdir, "fig7")
	case "8", "9", "10", "11", "12":
		return traceAnalysis(ctx, fig, scale, outdir)
	case "summary":
		return summary(ctx, scale, outdir)
	case "hetero":
		return hetero(ctx, scale, outdir)
	case "diurnal":
		return diurnal(ctx, scale, outdir)
	case "spot":
		return spotChaos(ctx, scale, outdir)
	case "latency":
		return latency(ctx, scale, outdir, short)
	case "ablation":
		return ablation(ctx, scale, outdir)
	case "scaling":
		return scaling(ctx, outdir)
	case "scale":
		if churn {
			return churnSweep(ctx, outdir, sizes)
		}
		return scaleSweep(ctx, outdir, sizes)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

func writeCSV(t *report.Table, outdir, name string) error {
	if outdir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(outdir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

func ladder(ctx context.Context, d experiments.Dataset, inst pricing.InstanceType, scale float64, outdir, name string) error {
	res, err := experiments.RunLadder(ctx, d, inst, scale)
	if err != nil {
		return err
	}
	t := res.Table()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for _, tau := range experiments.Taus {
		fmt.Printf("τ=%-5d full-vs-naive saving %.1f%%, over lower bound %.1f%%\n",
			tau, res.Savings(tau)*100, res.OverLowerBound(tau)*100)
	}
	return writeCSV(t, outdir, name)
}

func stage1Runtime(ctx context.Context, d experiments.Dataset, scale float64, outdir, name string) error {
	rows, err := experiments.RunStage1Runtime(ctx, d, scale)
	if err != nil {
		return err
	}
	var taus []int64
	var g, r []time.Duration
	for _, row := range rows {
		taus = append(taus, row.Tau)
		g = append(g, row.Greedy)
		r = append(r, row.Random)
	}
	t := experiments.RuntimeTable(
		fmt.Sprintf("Stage 1 runtime for %s traces (paper Fig. 4/5)", d),
		"GSP", "RSP", taus, g, r)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(t, outdir, name)
}

func stage2Runtime(ctx context.Context, d experiments.Dataset, scale float64, outdir, name string) error {
	rows, err := experiments.RunStage2Runtime(ctx, d, pricing.C3Large, scale)
	if err != nil {
		return err
	}
	var taus []int64
	var c, f []time.Duration
	for _, row := range rows {
		taus = append(taus, row.Tau)
		c = append(c, row.Custom)
		f = append(f, row.FirstFit)
	}
	t := experiments.RuntimeTable(
		fmt.Sprintf("Stage 2 runtime for %s for c3.large (paper Fig. 6/7)", d),
		"CustomBinPacking", "FFBinPacking", taus, c, f)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(t, outdir, name)
}

func traceAnalysis(ctx context.Context, fig string, scale float64, outdir string) error {
	ta, err := experiments.RunTraceAnalysis(ctx, scale)
	if err != nil {
		return err
	}
	var series []report.Series
	var title string
	switch fig {
	case "8":
		title = "Fig 8: CCDF of #Followers and #Followings"
		series = []report.Series{
			{Name: "followers", Points: ta.FollowersCCDF},
			{Name: "followings", Points: ta.FollowingsCCDF},
		}
	case "9":
		title = "Fig 9: CCDF of event rate"
		series = []report.Series{{Name: "event-rate", Points: ta.EventRateCCDF}}
	case "10":
		title = "Fig 10: mean event rate vs #followers"
		series = []report.Series{{Name: "mean-rate", Points: ta.RateVsFollowers}}
	case "11":
		title = "Fig 11: CCDF of subscription cardinality"
		series = []report.Series{{Name: "sc", Points: ta.SCCCDF}}
	case "12":
		title = "Fig 12: mean SC vs #followings"
		series = []report.Series{{Name: "mean-sc", Points: ta.SCVsFollowings}}
	}
	// CCDFs have thousands of points; print a decimated view, write the
	// full series to CSV.
	decimated := make([]report.Series, len(series))
	for i, s := range series {
		decimated[i] = report.Series{Name: s.Name, Points: decimate(s.Points, 25)}
	}
	if err := report.RenderSeries(os.Stdout, title+" (decimated)", decimated...); err != nil {
		return err
	}
	if outdir != "" {
		f, err := os.Create(filepath.Join(outdir, "fig"+fig+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return report.SeriesCSV(f, series...)
	}
	return nil
}

func decimate(pts []stats.Point, max int) []stats.Point {
	if len(pts) <= max {
		return pts
	}
	out := make([]stats.Point, 0, max)
	step := float64(len(pts)-1) / float64(max-1)
	for i := 0; i < max; i++ {
		out = append(out, pts[int(float64(i)*step)])
	}
	return out
}

func ablation(ctx context.Context, scale float64, outdir string) error {
	rows, err := experiments.RunStage2Ablation(ctx, experiments.Twitter, pricing.C3Large, 100, scale)
	if err != nil {
		return err
	}
	t := experiments.AblationTable(experiments.Twitter, 100, rows)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(t, outdir, "ablation")
}

func scaling(ctx context.Context, outdir string) error {
	rows, err := experiments.RunScaling(ctx, experiments.Twitter, 100, nil)
	if err != nil {
		return err
	}
	t := experiments.ScalingTable(experiments.Twitter, 100, rows)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(t, outdir, "scaling")
}

// scaleSweep runs the stage-2 scale sweep and writes the machine-readable
// BENCH_5.json next to the CSVs (or into the working directory when no
// -outdir is given) — the perf trajectory future changes regress against.
func scaleSweep(ctx context.Context, outdir string, sizes []int64) error {
	res, err := experiments.RunScale(ctx, sizes)
	if err != nil {
		return err
	}
	t := res.Table()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for _, fleet := range []string{"homogeneous", "hetero"} {
		for _, packer := range []string{"ffbp", "cbp"} {
			if r := res.MaxDoublingRatio(fleet, packer); r > 0 {
				fmt.Printf("%s/%s worst ratio per doubling %.2f× (2 = linear), growth exponent %.2f (1 = linear, 2 = quadratic)\n",
					fleet, packer, r, res.GrowthExponent(fleet, packer))
			}
		}
	}
	dir := outdir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_5.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return writeCSV(t, outdir, "scale")
}

// churnSweep runs the incremental-vs-full churn sweep at the scale sweep's
// sizes and writes the machine-readable BENCH_6.json — the incremental
// path's perf contract (≥10× at ≤5% churn on 1M+ pairs, regret ≤ 2%).
func churnSweep(ctx context.Context, outdir string, sizes []int64) error {
	res, err := experiments.RunChurn(ctx, sizes, nil)
	if err != nil {
		return err
	}
	t := res.Table()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("worst speedup at ≤5%% churn %.1f×, worst regret vs full re-solve %+.2f%%, all allocations verified: %v\n",
		res.Summary.MinSpeedupLowChurn, res.Summary.MaxRegretVsFull*100, res.Summary.AllVerified)
	dir := outdir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_6.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return writeCSV(t, outdir, "churn")
}

func hetero(ctx context.Context, scale float64, outdir string) error {
	for _, d := range []experiments.Dataset{experiments.Spotify, experiments.Twitter} {
		res, err := experiments.RunHetero(ctx, d, scale)
		if err != nil {
			return err
		}
		t := res.Table()
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		for _, tau := range experiments.Taus {
			homo, ok := res.BestHomogeneous(tau)
			mixed, ok2 := res.Mixed(tau)
			if !ok || !ok2 {
				continue
			}
			fmt.Printf("τ=%-5d mixed %.2f$ / %d VMs vs best homogeneous (%s) %.2f$ / %d VMs — saves %.3f%%\n",
				tau, mixed.CostUSD, mixed.VMs, homo.Strategy, homo.CostUSD, homo.VMs,
				res.Savings(tau)*100)
		}
		if err := writeCSV(t, outdir, "hetero-"+d.String()); err != nil {
			return err
		}
	}
	return nil
}

func diurnal(ctx context.Context, scale float64, outdir string) error {
	res, err := experiments.RunDiurnal(ctx, experiments.Twitter, scale)
	if err != nil {
		return err
	}
	et := res.EpochTable()
	if err := et.Render(os.Stdout); err != nil {
		return err
	}
	st := res.SummaryTable()
	if err := st.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("hysteresis saves %.1f%% vs static peak and costs %.1f%% more than the per-epoch oracle\n",
		res.SavingsVsStatic()*100, res.OverOracle()*100)
	if err := writeCSV(et, outdir, "diurnal-epochs"); err != nil {
		return err
	}
	return writeCSV(st, outdir, "diurnal-summary")
}

// spotChaos runs the spot-market chaos experiment and writes the
// machine-readable BENCH_8.json next to the CSVs (or into the working
// directory when no -outdir is given) — the realized-savings contract
// (≥20% vs all-on-demand with zero post-repair Verify failures).
func spotChaos(ctx context.Context, scale float64, outdir string) error {
	res, err := experiments.RunSpot(ctx, experiments.Twitter, scale)
	if err != nil {
		return err
	}
	et := res.EpochTable()
	if err := et.Render(os.Stdout); err != nil {
		return err
	}
	st := res.SummaryTable()
	if err := st.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("spot portfolio saves %.1f%% vs all-on-demand net of %d reclamations (%d groups, %d pair-min lost); all epochs verified: %v\n",
		res.SavingsVsOnDemand()*100, res.ReclaimedVMs(), res.ReclaimGroups(),
		res.LostPairMinutes(), res.VerifyFailures == 0)
	if res.VerifyFailures > 0 {
		return fmt.Errorf("%d epochs failed post-repair verification (first: %s)",
			res.VerifyFailures, res.VerifyErr)
	}
	dir := outdir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_8.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Bench().WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	if err := writeCSV(et, outdir, "spot-epochs"); err != nil {
		return err
	}
	return writeCSV(st, outdir, "spot-summary")
}

// latency runs the multi-region cost-vs-latency-SLO frontier and writes
// the machine-readable BENCH_9.json next to the CSVs (or into the working
// directory when no -outdir is given) — the acceptance bar is a monotone
// non-increasing frontier and an exact degenerate single-region match
// against the paper-faithful strategies.
func latency(ctx context.Context, scale float64, outdir string, short bool) error {
	res, err := experiments.RunLatency(ctx, experiments.Twitter, scale, short)
	if err != nil {
		return err
	}
	t := res.Table()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	b := res.Bench()
	fmt.Printf("frontier monotone: %v; tight/loose cost ratio %.3f; degenerate single-region exact: %v\n",
		b.Summary.Monotone, b.Summary.TightLooseRatio, b.Summary.DegenerateExact)
	if !res.DegenerateExact {
		return fmt.Errorf("degenerate single-region run diverged from gsp+cbp: %s", res.DegenerateDiff)
	}
	if !res.Monotone() {
		return fmt.Errorf("frontier not monotone: loosening the SLO ceiling increased total cost")
	}
	dir := outdir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_9.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := b.WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return writeCSV(t, outdir, "latency")
}

func summary(ctx context.Context, scale float64, outdir string) error {
	s, err := experiments.RunSummary(ctx, scale)
	if err != nil {
		return err
	}
	t := s.Table()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for _, d := range []experiments.Dataset{experiments.Spotify, experiments.Twitter} {
		fmt.Printf("max full saving on %s: measured %.1f%% (paper: up to %.0f%%)\n",
			d, s.MaxFullSavings[d]*100, experiments.PaperFullSavings(d)*100)
	}
	return writeCSV(t, outdir, "summary")
}
