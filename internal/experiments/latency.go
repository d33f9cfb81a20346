package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/topo"
	"github.com/pubsub-systems/mcss/internal/tracegen"
)

// Latency experiment constants — pinned so BENCH_9.json is reproducible.
const (
	// LatencyRegions is the synthetic topology's region count.
	LatencyRegions = 3
	// LatencyRegionSeed draws the workload's zipf-skewed geography.
	LatencyRegionSeed = 503
	// LatencyTau is the satisfaction threshold of every latency solve.
	LatencyTau = 100
)

// LatencyCeilings is the SLO sweep, tightest first, with 0 (no ceiling) as
// the loosest point. Under the synthetic 3-region topology (cross-region
// RTT 45/60 ms) the modeled pair RTT through the best broker region never
// exceeds 60 ms, so the tightest ceiling is feasible by construction and
// each looser ceiling only enlarges the feasible broker set.
func LatencyCeilings() []int64 { return []int64{60, 75, 90, 120, 0} }

// LatencyPoint is one point of the cost-vs-latency-ceiling frontier.
type LatencyPoint struct {
	SLOMillis int64 // 0 = no ceiling
	// RentalUSDPerHour and EgressUSDPerHour split the point's hourly bill;
	// TotalUSDPerHour is their sum (the Pareto objective).
	RentalUSDPerHour float64
	EgressUSDPerHour float64
	TotalUSDPerHour  float64
	EgressShare      float64 // egress / total
	// P99Millis and MaxMillis summarize the modeled delivery RTT
	// distribution across placed pairs; Violations is the count above the
	// ceiling (0 for every accepted point).
	P99Millis  int64
	MaxMillis  int64
	Violations int64
	VMs        int
	// Reused marks a point that kept the tighter ceiling's allocation
	// because the fresh solve came out more expensive (warm-start
	// dominance: a placement feasible under a tight ceiling stays feasible
	// under every looser one, so the frontier is monotone by construction
	// and Reused records where the greedy solve was non-monotone).
	Reused bool
}

// LatencyResult is the full latency experiment: the Pareto frontier over
// the SLO ceilings plus the degenerate single-region equivalence check.
type LatencyResult struct {
	Dataset  Dataset
	Tau      int64
	Regions  int
	Topology *topo.Topology
	Points   []LatencyPoint

	// DegenerateExact records that the default solve under a one-region
	// topology produced an allocation byte-identical to the paper-faithful
	// gsp+cbp solve on the same workload and config.
	DegenerateExact bool
	// DegenerateDiff holds the first difference when DegenerateExact is
	// false.
	DegenerateDiff string
}

// RunLatency generates the dataset, tags its endpoints across the
// synthetic multi-region topology, and sweeps the latency SLO ceiling from
// tightest to loosest, solving each point with the default stages (GSP
// preferring home-region topics, the topology-routed stage 2) and pricing
// it as hourly rental plus cross-region egress. Warm-start
// dominance keeps the cheaper of the fresh solve and the previous (tighter)
// point's allocation, so the reported frontier is monotone non-increasing
// in cost. It also runs the degenerate single-region case and checks that
// it reproduces the paper-faithful solve exactly. With short,
// the workload scale is capped for CI smoke runs.
func RunLatency(ctx context.Context, d Dataset, scale float64, short bool) (*LatencyResult, error) {
	if short && scale > 0.1 {
		scale = 0.1
	}
	base, err := Generate(d, scale)
	if err != nil {
		return nil, err
	}
	w, err := tracegen.TagRegions(base, LatencyRegions, LatencyRegionSeed)
	if err != nil {
		return nil, err
	}
	model := ModelFor(pricing.C3Large, w)
	t := topo.SyntheticTopology(LatencyRegions)
	fleet, err := topo.RegionalFleet(model.SingleFleet(), t)
	if err != nil {
		return nil, err
	}

	res := &LatencyResult{Dataset: d, Tau: LatencyTau, Regions: LatencyRegions, Topology: t}

	// The frontier, tightest ceiling first. Each point keeps the cheaper
	// of its fresh solve and the previous point's allocation.
	var best *core.Allocation
	var bestTotal pricing.MicroUSD
	for _, slo := range LatencyCeilings() {
		cfg := core.Config{
			Tau:              LatencyTau,
			MessageBytes:     MessageBytes,
			Model:            model,
			Fleet:            fleet,
			Topology:         t,
			LatencySLOMillis: slo,
			Opts:             core.OptAll,
		}
		sol, err := core.SolveContext(ctx, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("slo=%dms: %w", slo, err)
		}
		alloc := sol.Allocation
		_, egress, err := core.EgressPerHour(t, w, alloc, MessageBytes)
		if err != nil {
			return nil, fmt.Errorf("slo=%dms: %w", slo, err)
		}
		total := alloc.HourlyRentalRate(model).Add(egress)
		reused := false
		if best != nil && bestTotal < total {
			// The tighter ceiling's placement is feasible here too and
			// cheaper — keep it.
			alloc, total, reused = best, bestTotal, true
			if _, egress, err = core.EgressPerHour(t, w, alloc, MessageBytes); err != nil {
				return nil, fmt.Errorf("slo=%dms: %w", slo, err)
			}
		}
		best, bestTotal = alloc, total
		lat, err := topo.EvalLatency(t, w, alloc, MessageBytes, slo)
		if err != nil {
			return nil, fmt.Errorf("slo=%dms: %w", slo, err)
		}
		rental := alloc.HourlyRentalRate(model)
		share := 0.0
		if total > 0 {
			share = float64(egress) / float64(total)
		}
		res.Points = append(res.Points, LatencyPoint{
			SLOMillis:        slo,
			RentalUSDPerHour: rental.USD(),
			EgressUSDPerHour: egress.USD(),
			TotalUSDPerHour:  total.USD(),
			EgressShare:      share,
			P99Millis:        lat.P99Millis,
			MaxMillis:        lat.MaxMillis,
			Violations:       lat.Violations,
			VMs:              alloc.NumVMs(),
			Reused:           reused,
		})
	}

	// Degenerate case: one region, zero egress, no ceiling. The solve
	// under the one-region topology must reproduce gsp+cbp's allocation
	// byte for byte — same workload (region tags and all), same model.
	one := topo.SyntheticTopology(1)
	topoCfg := core.Config{Tau: LatencyTau, MessageBytes: MessageBytes, Model: model, Topology: one}
	paperCfg := core.Config{Tau: LatencyTau, MessageBytes: MessageBytes, Model: model}
	topoSol, err := core.SolveContext(ctx, w, topoCfg)
	if err != nil {
		return nil, fmt.Errorf("degenerate topo solve: %w", err)
	}
	paperSol, err := core.SolveContext(ctx, w, paperCfg)
	if err != nil {
		return nil, fmt.Errorf("degenerate paper solve: %w", err)
	}
	res.DegenerateDiff = DiffAllocations(topoSol.Allocation, paperSol.Allocation)
	res.DegenerateExact = res.DegenerateDiff == ""
	return res, nil
}

// Monotone reports whether the frontier's total cost is non-increasing as
// the ceiling loosens — the acceptance bar of the latency experiment.
func (r *LatencyResult) Monotone() bool {
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].TotalUSDPerHour > r.Points[i-1].TotalUSDPerHour {
			return false
		}
	}
	return true
}

// DiffAllocations compares two allocations placement by placement and
// returns a description of the first difference, or "" when they are
// identical (VM order, instance names, capacities, topics, subscriber
// lists, and accounting all equal).
func DiffAllocations(a, b *core.Allocation) string {
	if (a == nil) != (b == nil) {
		return "one allocation is nil"
	}
	if a == nil {
		return ""
	}
	if len(a.VMs) != len(b.VMs) {
		return fmt.Sprintf("VM count %d vs %d", len(a.VMs), len(b.VMs))
	}
	for i := range a.VMs {
		va, vb := a.VMs[i], b.VMs[i]
		if va.Instance != vb.Instance {
			return fmt.Sprintf("vm %d instance %q vs %q", i, va.Instance.Name, vb.Instance.Name)
		}
		if va.CapacityBytesPerHour != vb.CapacityBytesPerHour {
			return fmt.Sprintf("vm %d capacity %d vs %d", i, va.CapacityBytesPerHour, vb.CapacityBytesPerHour)
		}
		if va.InBytesPerHour != vb.InBytesPerHour || va.OutBytesPerHour != vb.OutBytesPerHour {
			return fmt.Sprintf("vm %d accounting (%d,%d) vs (%d,%d)", i,
				va.InBytesPerHour, va.OutBytesPerHour, vb.InBytesPerHour, vb.OutBytesPerHour)
		}
		if len(va.Placements) != len(vb.Placements) {
			return fmt.Sprintf("vm %d placement count %d vs %d", i, len(va.Placements), len(vb.Placements))
		}
		for j := range va.Placements {
			pa, pb := va.Placements[j], vb.Placements[j]
			if pa.Topic != pb.Topic {
				return fmt.Sprintf("vm %d placement %d topic %d vs %d", i, j, pa.Topic, pb.Topic)
			}
			if len(pa.Subs) != len(pb.Subs) {
				return fmt.Sprintf("vm %d topic %d sub count %d vs %d", i, pa.Topic, len(pa.Subs), len(pb.Subs))
			}
			for k := range pa.Subs {
				if pa.Subs[k] != pb.Subs[k] {
					return fmt.Sprintf("vm %d topic %d sub[%d] %d vs %d", i, pa.Topic, k, pa.Subs[k], pb.Subs[k])
				}
			}
		}
	}
	return ""
}

// Table renders the frontier.
func (r *LatencyResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Cost vs latency-SLO frontier on %s (τ=%d, %d regions)",
			r.Dataset, r.Tau, r.Regions),
		"SLO ms", "total $/h", "rental $/h", "egress $/h", "egress %", "p99 ms", "max ms", "VMs", "reused")
	for _, p := range r.Points {
		slo := fmt.Sprintf("%d", p.SLOMillis)
		if p.SLOMillis == 0 {
			slo = "none"
		}
		t.AddRow(slo, fmt.Sprintf("%.4f", p.TotalUSDPerHour), fmt.Sprintf("%.4f", p.RentalUSDPerHour),
			fmt.Sprintf("%.4f", p.EgressUSDPerHour), fmt.Sprintf("%.1f", p.EgressShare*100),
			p.P99Millis, p.MaxMillis, p.VMs, p.Reused)
	}
	return t
}

// LatencyBenchRow is one frontier point of BENCH_9.json.
type LatencyBenchRow struct {
	SLOMillis        int64   `json:"slo_ms"` // 0 = no ceiling
	TotalUSDPerHour  float64 `json:"total_usd_per_hour"`
	RentalUSDPerHour float64 `json:"rental_usd_per_hour"`
	EgressUSDPerHour float64 `json:"egress_usd_per_hour"`
	EgressShare      float64 `json:"egress_share"`
	P99Millis        int64   `json:"p99_ms"`
	MaxMillis        int64   `json:"max_ms"`
	Violations       int64   `json:"violations"`
	VMs              int     `json:"vms"`
	Reused           bool    `json:"reused"`
}

// LatencyBenchSummary is the headline block of BENCH_9.json.
type LatencyBenchSummary struct {
	// Monotone records that loosening the ceiling never increased total
	// cost; DegenerateExact that the single-region run matched the
	// paper-faithful solve byte for byte. Both are acceptance bars.
	Monotone        bool   `json:"monotone"`
	DegenerateExact bool   `json:"degenerate_exact"`
	DegenerateDiff  string `json:"degenerate_diff,omitempty"`
	// TightLooseRatio is cost(tightest)/cost(loosest) — how much the
	// latency guarantee costs.
	TightLooseRatio float64 `json:"tight_loose_ratio"`
}

// LatencyBench is the machine-readable experiment output (BENCH_9.json).
type LatencyBench struct {
	Bench      string              `json:"bench"`
	Dataset    string              `json:"dataset"`
	Tau        int64               `json:"tau"`
	Regions    int                 `json:"regions"`
	RegionSeed int64               `json:"region_seed"`
	Summary    LatencyBenchSummary `json:"summary"`
	Rows       []LatencyBenchRow   `json:"rows"`
}

// Bench flattens the result into the BENCH_9.json shape.
func (r *LatencyResult) Bench() *LatencyBench {
	b := &LatencyBench{
		Bench:      "latency-frontier",
		Dataset:    r.Dataset.String(),
		Tau:        r.Tau,
		Regions:    r.Regions,
		RegionSeed: LatencyRegionSeed,
		Summary: LatencyBenchSummary{
			Monotone:        r.Monotone(),
			DegenerateExact: r.DegenerateExact,
			DegenerateDiff:  r.DegenerateDiff,
		},
	}
	if n := len(r.Points); n > 0 && r.Points[n-1].TotalUSDPerHour > 0 {
		b.Summary.TightLooseRatio = r.Points[0].TotalUSDPerHour / r.Points[n-1].TotalUSDPerHour
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, LatencyBenchRow{
			SLOMillis:        p.SLOMillis,
			TotalUSDPerHour:  p.TotalUSDPerHour,
			RentalUSDPerHour: p.RentalUSDPerHour,
			EgressUSDPerHour: p.EgressUSDPerHour,
			EgressShare:      p.EgressShare,
			P99Millis:        p.P99Millis,
			MaxMillis:        p.MaxMillis,
			Violations:       p.Violations,
			VMs:              p.VMs,
			Reused:           p.Reused,
		})
	}
	return b
}

// WriteJSON emits the experiment in the BENCH_9.json format.
func (b *LatencyBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
