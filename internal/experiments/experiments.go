// Package experiments regenerates every figure of the MCSS paper's
// evaluation (§IV and Appendix D) on the synthetic Spotify-like and
// Twitter-like traces:
//
//	Fig. 2a/2b — optimization ladder on Spotify (c3.large / c3.xlarge)
//	Fig. 3a/3b — optimization ladder on Twitter  (c3.large / c3.xlarge)
//	Fig. 4/5   — Stage-1 runtime (GSP vs RSP) on Spotify / Twitter
//	Fig. 6/7   — Stage-2 runtime (CBP vs FFBP) on Spotify / Twitter
//	Fig. 8–12  — Twitter trace analysis (CCDFs and dependency series)
//
// Each driver returns structured results plus report.Table renderings, so
// the same code backs the unit tests, the benchmarks in bench_test.go, and
// the cmd/experiments binary. EXPERIMENTS.md records the paper-vs-measured
// comparison produced by the Summary driver.
package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/stats"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Dataset selects one of the two synthetic traces.
type Dataset int

const (
	// Spotify is the Spotify-like trace (small interest sets, log-normal
	// playback rates).
	Spotify Dataset = iota
	// Twitter is the Twitter-like trace (power-law follows, rate–
	// popularity coupling, celebrity damping).
	Twitter
)

// String implements fmt.Stringer.
func (d Dataset) String() string {
	if d == Spotify {
		return "spotify"
	}
	return "twitter"
}

// MessageBytes is the notification size both traces use (the paper sets
// 200 B for Twitter and normalizes Spotify to the same value).
const MessageBytes = core.DefaultMessageBytes

// Taus are the satisfaction thresholds the paper sweeps.
var Taus = []int64{10, 100, 1000}

// Generate materializes the dataset at the given scale (1.0 = the default
// experiment size, which solves in seconds on a laptop).
func Generate(d Dataset, scale float64) (*workload.Workload, error) {
	switch d {
	case Spotify:
		return tracegen.Spotify(tracegen.DefaultSpotifyConfig().Scale(scale))
	case Twitter:
		return tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(scale))
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %d", d)
	}
}

// targetFleet is the approximate c3.large fleet size at τ=100 the effective
// capacity is calibrated to, mirroring the paper's many-VM operating regime
// (its Figs. 2–3 report tens to hundreds of VMs, growing with τ). See
// DESIGN.md §3 for why the paper's literal mbps capacities cannot reproduce
// its own VM counts.
const targetFleet = 40

// ModelFor builds the pricing model for an instance type with the effective
// capacity calibrated to the workload: BC is proportional to the instance's
// link speed (so c3.xlarge has exactly twice c3.large's capacity, as in the
// paper) and sized so the GSP selection at τ=100 occupies ~targetFleet
// c3.large VMs — which puts τ=10 runs at a handful of VMs and τ=1000 runs
// in the hundreds, the paper's regime. The honest mbps-derived capacity can
// be selected by setting the returned model's CapacityOverrideBytesPerHour
// to zero.
func ModelFor(instance pricing.InstanceType, w *workload.Workload) pricing.Model {
	m := pricing.NewModel(instance) // 240 h rental, $0.12/GB
	midSelection := core.GreedySelectPairs(w, 100)
	base := midSelection.OutgoingRate() * MessageBytes / targetFleet
	var maxRate int64
	for t := 0; t < w.NumTopics(); t++ {
		if r := w.Rate(workload.TopicID(t)); r > maxRate {
			maxRate = r
		}
	}
	feasible := 2 * maxRate * MessageBytes
	if base < feasible {
		base = feasible
	}
	m.CapacityOverrideBytesPerHour = base * instance.LinkMbps / pricing.C3Large.LinkMbps
	return m
}

// Rung is one bar group of the paper's Figs. 2–3 ladder.
type Rung struct {
	// Name matches the paper's legend.
	Name   string
	Stage1 func(context.Context, *workload.Workload, core.Config) (*core.Selection, error)
	Stage2 func(context.Context, *core.Selection, core.Config) (*core.Allocation, error)
	Opts   core.OptFlags
}

// Ladder returns the paper's six configurations in presentation order:
// the naive baseline, then GSP with incrementally enabled Stage-2
// optimizations (a)–(e).
func Ladder() []Rung {
	gsp, cbp := core.GreedySelectPairsContext, core.CustomBinPackingContext
	return []Rung{
		{Name: "RSP+FFBP", Stage1: core.RandomSelectPairsContext, Stage2: core.FFBinPackingContext},
		{Name: "(a) GSP+FFBP", Stage1: gsp, Stage2: core.FFBinPackingContext},
		{Name: "(b) +group topics", Stage1: gsp, Stage2: cbp},
		{Name: "(c) +expensive first", Stage1: gsp, Stage2: cbp, Opts: core.OptExpensiveTopicFirst},
		{Name: "(d) +most-free VM", Stage1: gsp, Stage2: cbp, Opts: core.OptExpensiveTopicFirst | core.OptMostFreeVM},
		{Name: "(e) +cost decision", Stage1: gsp, Stage2: cbp, Opts: core.OptAll},
	}
}

// LadderRow is one measured bar: a rung (or the lower bound) at one τ.
type LadderRow struct {
	Tau         int64
	Rung        string
	CostUSD     float64
	VMs         int
	BandwidthGB float64
	Stage1Time  time.Duration
	Stage2Time  time.Duration
}

// LadderResult is a full Fig. 2/3 panel: every rung at every τ plus the
// lower bound, for one dataset and instance type.
type LadderResult struct {
	Dataset  Dataset
	Instance pricing.InstanceType
	Rows     []LadderRow
}

// RunLadder reproduces one panel of Figs. 2–3.
func RunLadder(ctx context.Context, d Dataset, instance pricing.InstanceType, scale float64) (*LadderResult, error) {
	w, err := Generate(d, scale)
	if err != nil {
		return nil, err
	}
	model := ModelFor(instance, w)
	res := &LadderResult{Dataset: d, Instance: instance}
	for _, tau := range Taus {
		for _, rung := range Ladder() {
			cfg := core.Config{
				Tau:          tau,
				MessageBytes: MessageBytes,
				Model:        model,
				Stage1:       rung.Stage1,
				Stage2:       rung.Stage2,
				Opts:         rung.Opts,
			}
			sol, err := core.SolveContext(ctx, w, cfg)
			if err != nil {
				return nil, fmt.Errorf("τ=%d %s: %w", tau, rung.Name, err)
			}
			res.Rows = append(res.Rows, LadderRow{
				Tau:         tau,
				Rung:        rung.Name,
				CostUSD:     sol.Cost(model).USD(),
				VMs:         sol.Allocation.NumVMs(),
				BandwidthGB: float64(sol.Allocation.TransferBytes(model)) / float64(pricing.GB),
				Stage1Time:  sol.Stage1Time,
				Stage2Time:  sol.Stage2Time,
			})
		}
		lb, err := core.LowerBoundContext(ctx, w, core.Config{Tau: tau, MessageBytes: MessageBytes, Model: model})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, LadderRow{
			Tau:         tau,
			Rung:        "Lower Bound",
			CostUSD:     lb.Cost.USD(),
			VMs:         lb.VMs,
			BandwidthGB: float64(model.TransferBytes(lb.OutBytesPerHour)) / float64(pricing.GB),
		})
	}
	return res, nil
}

// Table renders the panel in the paper's three-metric layout.
func (r *LadderResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Cost metrics for %s data with %s (BC scaled from %d mbps)",
			r.Dataset, r.Instance.Name, r.Instance.LinkMbps),
		"tau", "config", "total cost $", "VMs", "BW GB")
	for _, row := range r.Rows {
		t.AddRow(row.Tau, row.Rung, row.CostUSD, row.VMs, row.BandwidthGB)
	}
	return t
}

// Savings reports 1 − cost(last rung)/cost(first rung) for the given τ —
// the headline "up to 74% / 38%" metric.
func (r *LadderResult) Savings(tau int64) float64 {
	var naive, full float64
	for _, row := range r.Rows {
		if row.Tau != tau {
			continue
		}
		switch row.Rung {
		case "RSP+FFBP":
			naive = row.CostUSD
		case "(e) +cost decision":
			full = row.CostUSD
		}
	}
	if naive == 0 {
		return 0
	}
	return 1 - full/naive
}

// OverLowerBound reports cost(full)/cost(lower bound) − 1 for the given τ.
func (r *LadderResult) OverLowerBound(tau int64) float64 {
	var full, lb float64
	for _, row := range r.Rows {
		if row.Tau != tau {
			continue
		}
		switch row.Rung {
		case "(e) +cost decision":
			full = row.CostUSD
		case "Lower Bound":
			lb = row.CostUSD
		}
	}
	if lb == 0 {
		return 0
	}
	return full/lb - 1
}

// Stage1Runtime is one bar pair of Figs. 4–5.
type Stage1Runtime struct {
	Tau    int64
	Greedy time.Duration
	Random time.Duration
}

// RunStage1Runtime reproduces Fig. 4 (Spotify) / Fig. 5 (Twitter).
func RunStage1Runtime(ctx context.Context, d Dataset, scale float64) ([]Stage1Runtime, error) {
	w, err := Generate(d, scale)
	if err != nil {
		return nil, err
	}
	var out []Stage1Runtime
	for _, tau := range Taus {
		r := Stage1Runtime{Tau: tau}
		start := time.Now()
		gsp, err := core.GreedySelectPairsContext(ctx, w, core.Config{Tau: tau})
		if err != nil {
			return nil, err
		}
		r.Greedy = time.Since(start)
		start = time.Now()
		rsp, err := core.RandomSelectPairsContext(ctx, w, core.Config{Tau: tau})
		if err != nil {
			return nil, err
		}
		r.Random = time.Since(start)
		if !gsp.Satisfied(tau) || !rsp.Satisfied(tau) {
			return nil, fmt.Errorf("experiments: stage 1 produced unsatisfying selection at τ=%d", tau)
		}
		out = append(out, r)
	}
	return out, nil
}

// Stage2Runtime is one bar pair of Figs. 6–7.
type Stage2Runtime struct {
	Tau      int64
	Custom   time.Duration
	FirstFit time.Duration
}

// RunStage2Runtime reproduces Fig. 6 (Spotify) / Fig. 7 (Twitter): both
// packers consume the same GSP selection, as in the paper.
func RunStage2Runtime(ctx context.Context, d Dataset, instance pricing.InstanceType, scale float64) ([]Stage2Runtime, error) {
	w, err := Generate(d, scale)
	if err != nil {
		return nil, err
	}
	model := ModelFor(instance, w)
	var out []Stage2Runtime
	for _, tau := range Taus {
		sel, err := core.GreedySelectPairsContext(ctx, w, core.Config{Tau: tau})
		if err != nil {
			return nil, err
		}
		cfgC := core.Config{Tau: tau, MessageBytes: MessageBytes, Model: model, Opts: core.OptAll}
		cfgF := core.Config{Tau: tau, MessageBytes: MessageBytes, Model: model}

		r := Stage2Runtime{Tau: tau}
		start := time.Now()
		if _, err := core.CustomBinPackingContext(ctx, sel, cfgC); err != nil {
			return nil, err
		}
		r.Custom = time.Since(start)
		start = time.Now()
		if _, err := core.FFBinPackingContext(ctx, sel, cfgF); err != nil {
			return nil, err
		}
		r.FirstFit = time.Since(start)
		out = append(out, r)
	}
	return out, nil
}

// RuntimeTable renders Figs. 4–7 rows.
func RuntimeTable(title, aName, bName string, taus []int64, a, b []time.Duration) *report.Table {
	t := report.NewTable(title, "tau", aName, bName, "ratio")
	for i := range taus {
		ratio := float64(b[i]) / float64(a[i])
		t.AddRow(taus[i], a[i].Round(time.Microsecond).String(), b[i].Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", ratio))
	}
	return t
}

// TraceAnalysis bundles the Appendix-D figures (8–12) for the Twitter-like
// trace.
type TraceAnalysis struct {
	// FollowersCCDF and FollowingsCCDF are Fig. 8's two curves.
	FollowersCCDF, FollowingsCCDF []stats.Point
	// EventRateCCDF is Fig. 9.
	EventRateCCDF []stats.Point
	// RateVsFollowers is Fig. 10 (mean event rate per follower count,
	// log-bucketed).
	RateVsFollowers []stats.Point
	// SCCCDF is Fig. 11 (CCDF of subscription cardinality).
	SCCCDF []stats.Point
	// SCVsFollowings is Fig. 12 (mean SC per followings count,
	// log-bucketed).
	SCVsFollowings []stats.Point
}

// RunTraceAnalysis reproduces Figs. 8–12 from the Twitter-like trace.
func RunTraceAnalysis(ctx context.Context, scale float64) (*TraceAnalysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w, err := Generate(Twitter, scale)
	if err != nil {
		return nil, err
	}
	numT, numV := w.NumTopics(), w.NumSubscribers()

	followers := make([]int64, numT)
	rates := make([]float64, numT)
	rateKeys := make([]int64, numT)
	rateVals := make([]float64, numT)
	for t := 0; t < numT; t++ {
		followers[t] = int64(w.Followers(workload.TopicID(t)))
		rates[t] = float64(w.Rate(workload.TopicID(t)))
		rateKeys[t] = followers[t]
		rateVals[t] = rates[t]
	}
	followings := make([]int64, numV)
	scs := make([]float64, numV)
	for v := 0; v < numV; v++ {
		followings[v] = int64(w.Followings(workload.SubID(v)))
		scs[v] = w.SubscriptionCardinality(workload.SubID(v))
	}

	return &TraceAnalysis{
		FollowersCCDF:   stats.CCDFInt(followers),
		FollowingsCCDF:  stats.CCDFInt(followings),
		EventRateCCDF:   stats.CCDF(rates),
		RateVsFollowers: stats.LogBucketMean(rateKeys, rateVals, 2),
		SCCCDF:          stats.CCDF(scs),
		SCVsFollowings:  stats.LogBucketMean(followings, scs, 2),
	}, nil
}
