package experiments

import (
	"context"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/tracegen"
)

// DiurnalTau is the satisfaction threshold the diurnal comparison runs at —
// the paper's middle τ, where fleets are large enough to have room to both
// scale down and churn.
const DiurnalTau = 100

// DiurnalModulation returns the daily cycle the diurnal experiment applies
// to a dataset's base trace: the default Twitter-like curve plus a 3× flash
// crowd on the three hottest topics at 05:00, right in the trough — the
// event a static peak-provisioner pays for all day and an elastic
// controller absorbs for one epoch.
func DiurnalModulation() tracegen.DiurnalConfig {
	cfg := tracegen.DefaultDiurnalConfig()
	cfg.FlashEpoch = 5
	cfg.FlashTopics = 3
	cfg.FlashFactor = 3
	return cfg
}

// DiurnalResult is the full three-strategy comparison over one diurnal
// timeline: static peak provisioning, the per-epoch oracle, and the
// hysteresis controller, all billed per started instance-hour by the same
// ledger.
type DiurnalResult struct {
	Dataset    Dataset
	Tau        int64
	Modulation tracegen.DiurnalConfig
	Timeline   *timeline.Timeline
	Fleet      pricing.Fleet

	Static     *elastic.RunReport
	Oracle     *elastic.RunReport
	Hysteresis *elastic.RunReport
}

// RunDiurnal generates the dataset at the given scale, modulates it into a
// 24-epoch diurnal timeline, calibrates the fleet against the timeline's
// envelope (so the flash crowd stays feasible), and runs the three
// strategies.
func RunDiurnal(ctx context.Context, d Dataset, scale float64) (*DiurnalResult, error) {
	base, err := Generate(d, scale)
	if err != nil {
		return nil, err
	}
	mod := DiurnalModulation()
	tl, err := tracegen.Diurnal(base, mod)
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
		Model:        pricing.NewModel(pricing.C3Large), // 240 h rental, $0.12/GB
		Fleet:        fleet,
		Opts:         core.OptAll,
	}

	oracle, err := elastic.NewController(cfg, elastic.OraclePolicy()).Run(ctx, tl)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	hysteresis, err := elastic.NewController(cfg, elastic.DefaultPolicy()).Run(ctx, tl)
	if err != nil {
		return nil, fmt.Errorf("hysteresis: %w", err)
	}
	static, err := elastic.StaticPeakReport(tl, oracle)
	if err != nil {
		return nil, fmt.Errorf("static-peak: %w", err)
	}
	return &DiurnalResult{
		Dataset:    d,
		Tau:        DiurnalTau,
		Modulation: mod,
		Timeline:   tl,
		Fleet:      fleet,
		Static:     static,
		Oracle:     oracle,
		Hysteresis: hysteresis,
	}, nil
}

// SavingsVsStatic reports 1 − cost(hysteresis)/cost(static peak) — the
// headline elastic saving.
func (r *DiurnalResult) SavingsVsStatic() float64 {
	s := r.Static.TotalCost()
	if s == 0 {
		return 0
	}
	return 1 - float64(r.Hysteresis.TotalCost())/float64(s)
}

// OverOracle reports cost(hysteresis)/cost(oracle) − 1 — the price of not
// being clairvoyant.
func (r *DiurnalResult) OverOracle() float64 {
	o := r.Oracle.TotalCost()
	if o == 0 {
		return 0
	}
	return float64(r.Hysteresis.TotalCost())/float64(o) - 1
}

// SummaryTable renders the three strategies' bills.
func (r *DiurnalResult) SummaryTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Diurnal autoscaling on %s (τ=%d, %d epochs × %d min, fleet %s)",
			r.Dataset, r.Tau, r.Timeline.NumEpochs(), r.Timeline.EpochMinutes, r.Fleet),
		"strategy", "total $", "rental $", "transfer $", "started VM-h", "peak VMs", "moved pairs")
	for _, rep := range []*elastic.RunReport{r.Static, r.Oracle, r.Hysteresis} {
		t.AddRow(rep.Strategy,
			rep.TotalCost().USD(), rep.RentalCost().USD(), rep.TransferCost().USD(),
			rep.Ledger.StartedHours(), rep.MaxBilledVMs(), rep.TotalMoved())
	}
	return t
}

// EpochTable renders the per-epoch fleet trajectories of the three
// strategies against the activity curve.
func (r *DiurnalResult) EpochTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Per-epoch fleets on %s (activity curve peak %.0fh, trough ratio %.2f)",
			r.Dataset, r.Modulation.PeakHour, r.Modulation.TroughRatio),
		"epoch", "activity", "static VMs", "oracle VMs", "hyst active", "hyst billed", "hyst moved", "hyst added", "hyst util")
	for e := 0; e < r.Timeline.NumEpochs(); e++ {
		hourOfDay := float64(r.Timeline.StartMinute(e)) / 60
		h := r.Hysteresis.Epochs[e]
		t.AddRow(e,
			fmt.Sprintf("%.2f", r.Modulation.Activity(hourOfDay)),
			r.Static.Epochs[e].BilledVMs,
			r.Oracle.Epochs[e].BilledVMs,
			h.ActiveVMs, h.BilledVMs, h.PairsMoved, h.AddedPairs,
			fmt.Sprintf("%.2f", h.Utilization))
	}
	return t
}
