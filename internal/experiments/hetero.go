package experiments

import (
	"context"
	"errors"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// FleetFor returns the full instance catalog as a fleet whose per-VM
// capacities sit on the same calibrated bytes-per-mbps scale ModelFor uses,
// so heterogeneous and homogeneous solves are compared on identical
// workload-to-capacity footing.
func FleetFor(w *workload.Workload) pricing.Fleet {
	m := ModelFor(pricing.C3Large, w)
	bpm := m.CapacityOverrideBytesPerHour / pricing.C3Large.LinkMbps
	return pricing.CatalogFleet().WithBytesPerMbps(bpm)
}

// MixedFleetLabel names the heterogeneous strategy in HeteroRow.Strategy.
const MixedFleetLabel = "mixed fleet"

// HeteroRow is one solve of the homogeneous-vs-heterogeneous comparison:
// either the fleet restricted to a single instance type or the full mixed
// catalog, at one τ.
type HeteroRow struct {
	Tau      int64
	Strategy string // instance name, or MixedFleetLabel
	// Feasible is false when the type's capacity cannot host the hottest
	// topic, in which case the cost fields are meaningless.
	Feasible    bool
	CostUSD     float64
	VMs         int
	BandwidthGB float64
	// Mix is the deployed instance composition (single-element for
	// homogeneous rows).
	Mix string
}

// HeteroResult is the full comparison for one dataset: per τ, every
// homogeneous restriction of the calibrated catalog fleet plus the mixed
// solve — the experiment behind the heterogeneous-allocation claim that a
// mixed fleet dominates any homogeneous choice.
type HeteroResult struct {
	Dataset Dataset
	Fleet   pricing.Fleet
	Rows    []HeteroRow
}

// RunHetero solves the dataset at every τ with GSP+CBP(all opts) under (a)
// each single instance type of the calibrated catalog fleet and (b) the
// mixed fleet, and reports costs, VM counts, and fleet composition.
func RunHetero(ctx context.Context, d Dataset, scale float64) (*HeteroResult, error) {
	w, err := Generate(d, scale)
	if err != nil {
		return nil, err
	}
	fleet := FleetFor(w)
	model := pricing.NewModel(pricing.C3Large) // 240 h rental, $0.12/GB
	res := &HeteroResult{Dataset: d, Fleet: fleet}

	solveWith := func(tau int64, f pricing.Fleet, strategy string) error {
		cfg := core.Config{
			Tau:          tau,
			MessageBytes: MessageBytes,
			Model:        model,
			Fleet:        f,
			Opts:         core.OptAll,
		}
		sol, err := core.SolveContext(ctx, w, cfg)
		if errors.Is(err, core.ErrInfeasible) {
			res.Rows = append(res.Rows, HeteroRow{Tau: tau, Strategy: strategy})
			return nil
		}
		if err != nil {
			return fmt.Errorf("τ=%d %s: %w", tau, strategy, err)
		}
		res.Rows = append(res.Rows, HeteroRow{
			Tau:         tau,
			Strategy:    strategy,
			Feasible:    true,
			CostUSD:     sol.Cost(model).USD(),
			VMs:         sol.Allocation.NumVMs(),
			BandwidthGB: float64(sol.Allocation.TransferBytes(model)) / float64(pricing.GB),
			Mix:         report.FormatMix(sol.Allocation.InstanceMix()),
		})
		return nil
	}

	for _, tau := range Taus {
		for i := 0; i < fleet.Len(); i++ {
			if err := solveWith(tau, fleet.Single(i), fleet.Type(i).Name); err != nil {
				return nil, err
			}
		}
		if err := solveWith(tau, fleet, MixedFleetLabel); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// BestHomogeneous returns the cheapest feasible single-type row at τ, or
// ok=false when none is feasible.
func (r *HeteroResult) BestHomogeneous(tau int64) (HeteroRow, bool) {
	var best HeteroRow
	found := false
	for _, row := range r.Rows {
		if row.Tau != tau || row.Strategy == MixedFleetLabel || !row.Feasible {
			continue
		}
		if !found || row.CostUSD < best.CostUSD {
			best, found = row, true
		}
	}
	return best, found
}

// Mixed returns the mixed-fleet row at τ.
func (r *HeteroResult) Mixed(tau int64) (HeteroRow, bool) {
	for _, row := range r.Rows {
		if row.Tau == tau && row.Strategy == MixedFleetLabel {
			return row, row.Feasible
		}
	}
	return HeteroRow{}, false
}

// Savings reports 1 − cost(mixed)/cost(best homogeneous) at τ; zero when
// either side is missing. Non-negative by the solver's portfolio guarantee.
func (r *HeteroResult) Savings(tau int64) float64 {
	homo, ok1 := r.BestHomogeneous(tau)
	mixed, ok2 := r.Mixed(tau)
	if !ok1 || !ok2 || homo.CostUSD == 0 {
		return 0
	}
	return 1 - mixed.CostUSD/homo.CostUSD
}

// Table renders the comparison.
func (r *HeteroResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Homogeneous vs heterogeneous fleets on %s (catalog %s)", r.Dataset, r.Fleet),
		"tau", "strategy", "total cost $", "VMs", "BW GB", "mix")
	for _, row := range r.Rows {
		if !row.Feasible {
			t.AddRow(row.Tau, row.Strategy, "infeasible", "-", "-", "-")
			continue
		}
		t.AddRow(row.Tau, row.Strategy, row.CostUSD, row.VMs, row.BandwidthGB, row.Mix)
	}
	return t
}
