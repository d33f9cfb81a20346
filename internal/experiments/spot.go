package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/tracegen"
)

// Spot experiment seeds — pinned so BENCH_8.json is reproducible: the
// market seed drives the price walk, spikes, and storm placement; the
// chaos seed draws the per-VM reclamations against that market.
const (
	SpotMarketSeed = 401
	SpotChaosSeed  = 409
)

// SpotMarketConfig is the market the chaos experiment runs under: the
// default spot trace (70% mean discount, mild volatility, one storm in
// the second half) sized to the experiment's timeline, with the baseline
// reclamation risk raised to 5%/VM/epoch so a 24-epoch day reliably
// exercises the reclaim → bill → repair path at experiment scale.
func SpotMarketConfig(epochs int, epochMinutes int64) spot.MarketConfig {
	cfg := spot.DefaultMarketConfig()
	cfg.Epochs = epochs
	cfg.EpochMinutes = epochMinutes
	cfg.BaseReclaimProb = 0.05
	cfg.Seed = SpotMarketSeed
	return cfg
}

// SpotResult compares two hysteresis controllers over the same diurnal
// timeline: one renting on-demand only, one running the risk-aware spot
// portfolio against a generated spot market with chaos-mode reclamations
// injected every epoch. Both are billed per started instance-hour by
// their own ledgers; the spot run additionally pays for reclaimed hours
// and repair churn, so SavingsVsOnDemand is the *realized* saving net of
// interruptions, not the sticker discount.
type SpotResult struct {
	Dataset  Dataset
	Tau      int64
	Timeline *timeline.Timeline
	Fleet    pricing.Fleet
	Market   *spot.Market

	OnDemand *elastic.RunReport // all-on-demand hysteresis baseline
	Spot     *elastic.RunReport // spot portfolio under chaos

	// VerifyFailures counts epochs whose post-repair allocation failed
	// core.VerifyServes against the epoch snapshot (the acceptance bar is
	// zero); VerifyErr keeps the first failure's message.
	VerifyFailures int
	VerifyErr      string
}

// RunSpot generates the dataset at the given scale, modulates it into the
// diurnal timeline, calibrates the fleet against the envelope, generates
// a spot market over that fleet, and runs the all-on-demand baseline and
// the spot portfolio (risk-aware stage 2, price schedule, chaos injector)
// over the same epochs. Every post-repair allocation is verified against
// its epoch snapshot with the run's decision fleet.
func RunSpot(ctx context.Context, d Dataset, scale float64) (*SpotResult, error) {
	base, err := Generate(d, scale)
	if err != nil {
		return nil, err
	}
	tl, err := tracegen.Diurnal(base, DiurnalModulation())
	if err != nil {
		return nil, err
	}
	env, err := tl.Envelope()
	if err != nil {
		return nil, err
	}
	fleet := FleetFor(env)
	cfg := core.Config{
		Tau:          DiurnalTau,
		MessageBytes: MessageBytes,
		Model:        pricing.NewModel(pricing.C3Large),
		Fleet:        fleet,
		Opts:         core.OptAll,
	}

	market, err := spot.GenerateMarket(fleet, SpotMarketConfig(tl.NumEpochs(), tl.EpochMinutes))
	if err != nil {
		return nil, err
	}

	onDemand, err := elastic.NewController(cfg, elastic.DefaultPolicy()).Run(ctx, tl)
	if err != nil {
		return nil, fmt.Errorf("on-demand baseline: %w", err)
	}

	ctl := elastic.NewController(cfg, elastic.DefaultPolicy())
	if err := ctl.SetSpotMarket(market, SpotChaosSeed); err != nil {
		return nil, err
	}
	spotRep, err := ctl.Run(ctx, tl)
	if err != nil {
		return nil, fmt.Errorf("spot portfolio: %w", err)
	}

	res := &SpotResult{
		Dataset:  d,
		Tau:      DiurnalTau,
		Timeline: tl,
		Fleet:    fleet,
		Market:   market,
		OnDemand: onDemand,
		Spot:     spotRep,
	}
	// The run's final decision fleet carries the un-derated capacities for
	// the spot variants; recorded per-VM capacities may be headroom-derated.
	verifyCfg := cfg
	verifyCfg.Fleet = spotRep.Fleet
	for e, alloc := range spotRep.Allocations {
		if err := core.VerifyServes(tl.Epochs[e], alloc, verifyCfg); err != nil {
			res.VerifyFailures++
			if res.VerifyErr == "" {
				res.VerifyErr = fmt.Sprintf("epoch %d: %v", e, err)
			}
		}
	}
	return res, nil
}

// SavingsVsOnDemand reports 1 − cost(spot)/cost(on-demand) — the realized
// saving of the spot portfolio net of reclaimed hours and repair churn.
func (r *SpotResult) SavingsVsOnDemand() float64 {
	od := r.OnDemand.TotalCost()
	if od == 0 {
		return 0
	}
	return 1 - float64(r.Spot.TotalCost())/float64(od)
}

// ReclaimedVMs, ReclaimGroups, RepairedPairs, LostPairMinutes, and
// RepricedEpochs sum the spot run's chaos telemetry across epochs.
func (r *SpotResult) ReclaimedVMs() int {
	return sumEpochs(r, func(e elastic.EpochReport) int { return e.ReclaimedVMs })
}
func (r *SpotResult) ReclaimGroups() int {
	return sumEpochs(r, func(e elastic.EpochReport) int { return e.ReclaimGroups })
}
func (r *SpotResult) RepairedPairs() int64 {
	return sumEpochs64(r, func(e elastic.EpochReport) int64 { return e.RepairedPairs })
}
func (r *SpotResult) LostPairMinutes() int64 {
	return sumEpochs64(r, func(e elastic.EpochReport) int64 { return e.LostPairMinutes })
}
func (r *SpotResult) RepricedEpochs() int {
	return sumEpochs(r, func(e elastic.EpochReport) int {
		if e.Repriced {
			return 1
		}
		return 0
	})
}

func sumEpochs(r *SpotResult, f func(elastic.EpochReport) int) int {
	var sum int
	for _, e := range r.Spot.Epochs {
		sum += f(e)
	}
	return sum
}

func sumEpochs64(r *SpotResult, f func(elastic.EpochReport) int64) int64 {
	var sum int64
	for _, e := range r.Spot.Epochs {
		sum += f(e)
	}
	return sum
}

// spotVMs counts an epoch's active spot VMs from its instance mix.
func spotVMs(e elastic.EpochReport) int {
	var n int
	for name, c := range e.ActiveMix {
		if pricing.IsSpot(name) {
			n += c
		}
	}
	return n
}

// SummaryTable renders the two strategies' realized bills side by side.
func (r *SpotResult) SummaryTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Spot portfolio vs on-demand on %s (τ=%d, %d epochs × %d min, %d AZs)",
			r.Dataset, r.Tau, r.Timeline.NumEpochs(), r.Timeline.EpochMinutes, r.Market.NumAZs),
		"strategy", "total $", "rental $", "transfer $", "started VM-h", "peak VMs", "reclaims", "lost pair-min")
	t.AddRow("on-demand",
		r.OnDemand.TotalCost().USD(), r.OnDemand.RentalCost().USD(), r.OnDemand.TransferCost().USD(),
		r.OnDemand.Ledger.StartedHours(), r.OnDemand.MaxBilledVMs(), 0, 0)
	t.AddRow("spot-portfolio",
		r.Spot.TotalCost().USD(), r.Spot.RentalCost().USD(), r.Spot.TransferCost().USD(),
		r.Spot.Ledger.StartedHours(), r.Spot.MaxBilledVMs(), r.ReclaimedVMs(), r.LostPairMinutes())
	return t
}

// EpochTable renders the spot run's per-epoch chaos trajectory.
func (r *SpotResult) EpochTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Chaos epochs on %s (market seed %d, chaos seed %d)",
			r.Dataset, SpotMarketSeed, SpotChaosSeed),
		"epoch", "repriced", "active", "spot VMs", "billed", "groups", "reclaimed", "repaired", "new VMs", "lost pair-min", "util")
	for _, e := range r.Spot.Epochs {
		t.AddRow(e.Epoch, e.Repriced, e.ActiveVMs, spotVMs(e), e.BilledVMs,
			e.ReclaimGroups, e.ReclaimedVMs, e.RepairedPairs, e.RepairNewVMs,
			e.LostPairMinutes, fmt.Sprintf("%.2f", e.Utilization))
	}
	return t
}

// SpotBenchRow is one epoch of the machine-readable chaos trace.
type SpotBenchRow struct {
	Epoch           int     `json:"epoch"`
	Repriced        bool    `json:"repriced"`
	ActiveVMs       int     `json:"active_vms"`
	SpotVMs         int     `json:"spot_vms"`
	BilledVMs       int     `json:"billed_vms"`
	ReclaimGroups   int     `json:"reclaim_groups"`
	ReclaimedVMs    int     `json:"reclaimed_vms"`
	RepairedPairs   int64   `json:"repaired_pairs"`
	RepairNewVMs    int     `json:"repair_new_vms"`
	LostPairMinutes int64   `json:"lost_pair_minutes"`
	Utilization     float64 `json:"utilization"`
}

// SpotBenchSummary is the headline block of BENCH_8.json.
type SpotBenchSummary struct {
	// OnDemandUSD and SpotUSD are the two runs' realized totals;
	// SavingsFrac is 1 − spot/on-demand (the ≥0.20 acceptance bar).
	OnDemandUSD float64 `json:"on_demand_usd"`
	SpotUSD     float64 `json:"spot_usd"`
	SavingsFrac float64 `json:"savings_frac"`
	// Chaos totals across the run.
	ReclaimedVMs    int   `json:"reclaimed_vms"`
	ReclaimGroups   int   `json:"reclaim_groups"`
	RepairedPairs   int64 `json:"repaired_pairs"`
	LostPairMinutes int64 `json:"lost_pair_minutes"`
	RepricedEpochs  int   `json:"repriced_epochs"`
	// AllVerified records that every post-repair allocation passed
	// VerifyServes against its epoch snapshot.
	AllVerified    bool   `json:"all_verified"`
	VerifyFailures int    `json:"verify_failures"`
	VerifyErr      string `json:"verify_err,omitempty"`
}

// SpotBench is the machine-readable experiment output (BENCH_8.json).
type SpotBench struct {
	Bench        string           `json:"bench"`
	Dataset      string           `json:"dataset"`
	Tau          int64            `json:"tau"`
	Epochs       int              `json:"epochs"`
	EpochMinutes int64            `json:"epoch_minutes"`
	NumAZs       int              `json:"num_azs"`
	MarketSeed   int64            `json:"market_seed"`
	ChaosSeed    int64            `json:"chaos_seed"`
	Summary      SpotBenchSummary `json:"summary"`
	Rows         []SpotBenchRow   `json:"rows"`
}

// Bench flattens the result into the BENCH_8.json shape.
func (r *SpotResult) Bench() *SpotBench {
	b := &SpotBench{
		Bench:        "spot-chaos",
		Dataset:      r.Dataset.String(),
		Tau:          r.Tau,
		Epochs:       r.Timeline.NumEpochs(),
		EpochMinutes: r.Timeline.EpochMinutes,
		NumAZs:       r.Market.NumAZs,
		MarketSeed:   SpotMarketSeed,
		ChaosSeed:    SpotChaosSeed,
		Summary: SpotBenchSummary{
			OnDemandUSD:     r.OnDemand.TotalCost().USD(),
			SpotUSD:         r.Spot.TotalCost().USD(),
			SavingsFrac:     r.SavingsVsOnDemand(),
			ReclaimedVMs:    r.ReclaimedVMs(),
			ReclaimGroups:   r.ReclaimGroups(),
			RepairedPairs:   r.RepairedPairs(),
			LostPairMinutes: r.LostPairMinutes(),
			RepricedEpochs:  r.RepricedEpochs(),
			AllVerified:     r.VerifyFailures == 0,
			VerifyFailures:  r.VerifyFailures,
			VerifyErr:       r.VerifyErr,
		},
	}
	for _, e := range r.Spot.Epochs {
		b.Rows = append(b.Rows, SpotBenchRow{
			Epoch:           e.Epoch,
			Repriced:        e.Repriced,
			ActiveVMs:       e.ActiveVMs,
			SpotVMs:         spotVMs(e),
			BilledVMs:       e.BilledVMs,
			ReclaimGroups:   e.ReclaimGroups,
			ReclaimedVMs:    e.ReclaimedVMs,
			RepairedPairs:   e.RepairedPairs,
			RepairNewVMs:    e.RepairNewVMs,
			LostPairMinutes: e.LostPairMinutes,
			Utilization:     e.Utilization,
		})
	}
	return b
}

// WriteJSON emits the experiment in the BENCH_8.json format.
func (b *SpotBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
