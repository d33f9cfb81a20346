package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// The churn sweep measures the incremental re-solve against the full
// re-solve it replaces: at each scale-sweep size, a delta touching a fixed
// fraction of the pairs (45% unsubscribes, 45% fresh subscribes, rate
// changes on churn/2 of the topics) is absorbed once through
// Provisioner.UpdateIncremental (persistent indexed state, delta-
// proportional work) and once through Provisioner.UpdateContext (full
// two-stage re-solve). Both resulting allocations are verified before
// their timings count, and the incremental answer's cost is compared
// against the full solver's — the regret the speedup is paid with. The
// machine-readable result (BENCH_6.json) is the incremental path's perf
// contract: ≥10× at ≤5% churn on 1M+ pairs, regret within 2%.

// ChurnFracs is the default sweep of delta sizes as a fraction of pairs.
var ChurnFracs = []float64{0.01, 0.02, 0.05, 0.10, 0.20}

// ChurnRow is one measured (size, churn) point.
type ChurnRow struct {
	Pairs     int64   `json:"pairs"`
	ChurnFrac float64 `json:"churn_frac"`
	// DeltaOps counts the delta's pair operations (subscribes +
	// unsubscribes); RateChanges its re-rated topics.
	DeltaOps    int64   `json:"delta_ops"`
	RateChanges int     `json:"rate_changes"`
	IncSeconds  float64 `json:"inc_seconds"`
	FullSeconds float64 `json:"full_seconds"`
	Speedup     float64 `json:"speedup"`
	// RegretVsFull is (incremental cost − full cost) / full cost for the
	// same post-delta workload; negative means the incremental answer was
	// cheaper.
	RegretVsFull float64 `json:"regret_vs_full"`
	// PairsMoved is the incremental path's churn (dropped + inserted +
	// improved); Fallback reports whether regret drift forced it into a
	// full re-solve (its timing then includes that solve).
	PairsMoved int64 `json:"pairs_moved"`
	Fallback   bool  `json:"fallback,omitempty"`
	VMs        int   `json:"vms"`
}

// ChurnSummary is the sweep's acceptance digest.
type ChurnSummary struct {
	// MinSpeedupLowChurn is the worst incremental-vs-full speedup across
	// rows with churn ≤ 5%.
	MinSpeedupLowChurn float64 `json:"min_speedup_low_churn"`
	// MaxRegretVsFull is the worst cost regret versus the full re-solve
	// across all rows.
	MaxRegretVsFull float64 `json:"max_regret_vs_full"`
	// AllVerified records that every measured allocation — incremental and
	// full — passed VerifyAllocation.
	AllVerified bool `json:"all_verified"`
}

// ChurnResult is the machine-readable sweep output (BENCH_6.json).
type ChurnResult struct {
	Bench      string       `json:"bench"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Summary    ChurnSummary `json:"summary"`
	Rows       []ChurnRow   `json:"rows"`
}

// ChurnSetup builds one churn point: the scale sweep's workload at the
// given size plus the solve config RunChurn measures under (heterogeneous
// fleet, parallel CBP portfolio, τ above any demand so every interest is
// selected). Shared with the root BenchmarkUpdateIncrementalVsFull so the
// CI benchmark and the sweep measure the same thing.
func ChurnSetup(pairs int64) (*workload.Workload, core.Config, error) {
	w, err := ScaleWorkload(pairs)
	if err != nil {
		return nil, core.Config{}, err
	}
	sel := core.SelectAllPairs(w)
	model, hetero, err := scaleFleets(sel)
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg := core.Config{
		// τ above any demand: every interest is selected, so the full and
		// incremental paths answer the same selection problem.
		Tau:          1 << 56,
		MessageBytes: MessageBytes,
		Model:        model,
		Fleet:        hetero,
		Opts:         core.OptAll,
		Parallelism:  -1,
	}
	return w, cfg, nil
}

// ChurnDelta draws a delta touching ~frac of w's pairs: half unsubscribes
// of existing interests, half subscribes of fresh (topic, subscriber)
// combinations, plus rate changes on ⌈numTopics·frac/2⌉ topics. New rates
// random-walk within ±12.5% of the old rate — epoch-scale drift, not a
// regime change (a regime change, e.g. a hot topic halving its rate,
// shifts the optimal fleet mix and is exactly what the regret fallback is
// for; the 10–20% churn rows exercise that path). Rates never exceed the
// workload's own maximum, so the sweep's calibrated capacity floor
// (2·maxRate per VM) keeps every topic hostable.
func ChurnDelta(rng *rand.Rand, w *workload.Workload, frac float64) dynamic.Delta {
	var d dynamic.Delta
	nOps := int64(float64(w.NumPairs()) * frac)
	unsubs := nOps / 2
	subs := nOps - unsubs

	var maxRate int64
	for t := 0; t < w.NumTopics(); t++ {
		if r := w.Rate(workload.TopicID(t)); r > maxRate {
			maxRate = r
		}
	}

	seen := make(map[workload.Pair]bool, nOps)
	for int64(len(d.Unsubscribe)) < unsubs {
		v := workload.SubID(rng.Intn(w.NumSubscribers()))
		ts := w.Topics(v)
		if len(ts) == 0 {
			continue
		}
		pr := workload.Pair{Topic: ts[rng.Intn(len(ts))], Sub: v}
		if seen[pr] {
			continue
		}
		seen[pr] = true
		d.Unsubscribe = append(d.Unsubscribe, pr)
	}
	for int64(len(d.Subscribe)) < subs {
		v := workload.SubID(rng.Intn(w.NumSubscribers()))
		pr := workload.Pair{Topic: workload.TopicID(rng.Intn(w.NumTopics())), Sub: v}
		if seen[pr] {
			continue
		}
		ts := w.Topics(v)
		i := sort.Search(len(ts), func(i int) bool { return ts[i] >= pr.Topic })
		if i < len(ts) && ts[i] == pr.Topic {
			continue // already an interest
		}
		seen[pr] = true
		d.Subscribe = append(d.Subscribe, pr)
	}

	nRate := int(float64(w.NumTopics())*frac/2) + 1
	d.RateChanges = make(map[workload.TopicID]int64, nRate)
	for len(d.RateChanges) < nRate {
		t := workload.TopicID(rng.Intn(w.NumTopics()))
		if _, ok := d.RateChanges[t]; ok {
			continue
		}
		old := w.Rate(t)
		nr := old - old/8 + rng.Int63n(old/4+1)
		if nr > maxRate {
			nr = maxRate
		}
		if nr == old {
			nr++
		}
		if nr > maxRate {
			continue // old == maxRate: skip rather than outgrow the fleet
		}
		d.RateChanges[t] = nr
	}
	return d
}

// RunChurn measures the incremental path against the full re-solve at each
// (size, churn) point on the scale sweep's heterogeneous fleet with the
// parallel CBP portfolio — the strongest full-solve baseline the repo has.
func RunChurn(ctx context.Context, sizes []int64, fracs []float64) (*ChurnResult, error) {
	if len(sizes) == 0 {
		sizes = ScaleSizes
	}
	if len(fracs) == 0 {
		fracs = ChurnFracs
	}
	res := &ChurnResult{
		Bench:      "incremental-churn",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Summary:    ChurnSummary{AllVerified: true},
	}
	for _, n := range sizes {
		w, cfg, err := ChurnSetup(n)
		if err != nil {
			return nil, err
		}
		base, err := core.SolveContext(ctx, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("churn %d: initial solve: %w", n, err)
		}
		rng := rand.New(rand.NewSource(n))
		for _, frac := range fracs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			d := ChurnDelta(rng, w, frac)
			reps := 3

			// Incremental: restore the provisioner and warm the persistent
			// index with an empty delta (building it is a once-per-adoption
			// cost, amortized across epochs in a live controller), then
			// absorb the delta through the indexed state.
			var incSec float64
			var incStats dynamic.MigrationStats
			var incProv *dynamic.Provisioner
			for rep := 0; rep < reps; rep++ {
				prov := dynamic.Restore(w, base, cfg)
				if _, err := prov.UpdateIncremental(ctx, dynamic.Delta{}); err != nil {
					return nil, fmt.Errorf("churn %d/%.2f: index build: %w", n, frac, err)
				}
				start := time.Now()
				stats, err := prov.UpdateIncremental(ctx, d)
				sec := time.Since(start).Seconds()
				if err != nil {
					return nil, fmt.Errorf("churn %d/%.2f: incremental: %w", n, frac, err)
				}
				if rep == 0 || sec < incSec {
					incSec, incStats, incProv = sec, stats, prov
				}
			}

			// Full: the same delta through the ordinary re-solve path.
			fullReps := reps
			if n >= 640_000 {
				fullReps = 1
			}
			var fullSec float64
			var fullProv *dynamic.Provisioner
			for rep := 0; rep < fullReps; rep++ {
				prov := dynamic.Restore(w, base, cfg)
				start := time.Now()
				if _, err := prov.UpdateContext(ctx, d); err != nil {
					return nil, fmt.Errorf("churn %d/%.2f: full: %w", n, frac, err)
				}
				sec := time.Since(start).Seconds()
				if rep == 0 || sec < fullSec {
					fullSec, fullProv = sec, prov
				}
			}

			// A fast-but-wrong update cannot produce a flattering sweep.
			if err := core.VerifyAllocation(incProv.Workload(), incProv.Selection(), incProv.Allocation(), cfg); err != nil {
				res.Summary.AllVerified = false
				return nil, fmt.Errorf("churn %d/%.2f: incremental allocation invalid: %w", n, frac, err)
			}
			if err := core.VerifyAllocation(fullProv.Workload(), fullProv.Selection(), fullProv.Allocation(), cfg); err != nil {
				res.Summary.AllVerified = false
				return nil, fmt.Errorf("churn %d/%.2f: full allocation invalid: %w", n, frac, err)
			}

			regret := (float64(incProv.Cost()) - float64(fullProv.Cost())) / float64(fullProv.Cost())
			res.Rows = append(res.Rows, ChurnRow{
				Pairs:        w.NumPairs(),
				ChurnFrac:    frac,
				DeltaOps:     int64(len(d.Subscribe) + len(d.Unsubscribe)),
				RateChanges:  len(d.RateChanges),
				IncSeconds:   incSec,
				FullSeconds:  fullSec,
				Speedup:      fullSec / incSec,
				RegretVsFull: regret,
				PairsMoved:   incStats.PairsMoved,
				Fallback:     incStats.Fallback,
				VMs:          incProv.Allocation().NumVMs(),
			})
		}
	}
	for _, row := range res.Rows {
		if row.ChurnFrac <= 0.05 {
			if res.Summary.MinSpeedupLowChurn == 0 || row.Speedup < res.Summary.MinSpeedupLowChurn {
				res.Summary.MinSpeedupLowChurn = row.Speedup
			}
		}
		if row.RegretVsFull > res.Summary.MaxRegretVsFull {
			res.Summary.MaxRegretVsFull = row.RegretVsFull
		}
	}
	return res, nil
}

// WriteJSON emits the sweep in the BENCH_6.json format.
func (r *ChurnResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Table renders the sweep.
func (r *ChurnResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Incremental vs full re-solve under churn (GOMAXPROCS=%d)", r.GoMaxProcs),
		"pairs", "churn", "Δops", "incremental", "full", "speedup", "regret", "moved", "VMs")
	for _, row := range r.Rows {
		fb := ""
		if row.Fallback {
			fb = " (fallback)"
		}
		t.AddRow(row.Pairs,
			fmt.Sprintf("%.0f%%", row.ChurnFrac*100),
			row.DeltaOps,
			time.Duration(row.IncSeconds*float64(time.Second)).Round(time.Microsecond).String()+fb,
			time.Duration(row.FullSeconds*float64(time.Second)).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f×", row.Speedup),
			fmt.Sprintf("%+.2f%%", row.RegretVsFull*100),
			row.PairsMoved,
			row.VMs)
	}
	return t
}
