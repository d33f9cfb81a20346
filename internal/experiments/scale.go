package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// The scale sweep measures stage-2 packing time alone across workload
// sizes from 10k to over 1M pairs, on a homogeneous fleet and on a
// three-type heterogeneous fleet (where the solve runs the full parallel
// portfolio). It exists to keep the indexed packers honest: VM counts
// grow linearly with pairs here (capacity is calibrated to a fixed
// pairs-per-VM density), so the retired naive packers were quadratic on
// exactly this sweep while the indexed engine must stay near-linear —
// doubling the pair count may not much more than double the stage-2 time.
// The machine-readable result (BENCH_5.json) is the perf trajectory
// future changes regress against.

// ScaleSizes is the full sweep: doubling steps from 10k past 1M pairs.
var ScaleSizes = []int64{10_000, 20_000, 40_000, 80_000, 160_000, 320_000, 640_000, 1_280_000}

// ScaleSizesShort is the CI-sized sweep (seconds, not minutes).
var ScaleSizesShort = []int64{10_000, 20_000, 40_000}

// scalePairsPerVM fixes the packing density: capacities are sized so one
// VM holds roughly this many pairs, making the deployed fleet grow
// linearly with the workload — the regime where a per-pair fleet scan is
// quadratic.
const scalePairsPerVM = 256

// ScaleRow is one measured stage-2 run.
type ScaleRow struct {
	Pairs       int64   `json:"pairs"`
	Fleet       string  `json:"fleet"`  // "homogeneous" or "hetero"
	Packer      string  `json:"packer"` // "ffbp" or "cbp"
	Seconds     float64 `json:"seconds"`
	PairsPerSec float64 `json:"pairs_per_sec"`
	VMs         int     `json:"vms"`
	// DoublingRatio is Seconds over the same (fleet, packer) run at half
	// the pair count, or 0 for the first size. Near-linear growth keeps
	// it close to 2; the naive packers sat near 4.
	DoublingRatio float64 `json:"doubling_ratio,omitempty"`
}

// ScaleSeries summarizes one (fleet, packer) series of the sweep.
type ScaleSeries struct {
	Fleet  string `json:"fleet"`
	Packer string `json:"packer"`
	// GrowthExponent fits T ∝ P^e end to end (1 = linear, 2 = quadratic;
	// the naive packers sat near 2). This is the headline near-linearity
	// metric — robust to a single noisy step.
	GrowthExponent float64 `json:"growth_exponent"`
	// MaxDoublingRatio is the worst consecutive-size time ratio (2 =
	// perfectly linear); individual steps carry scheduler/cache noise
	// that the exponent smooths out.
	MaxDoublingRatio float64 `json:"max_doubling_ratio"`
}

// ScaleResult is the machine-readable sweep output (BENCH_5.json).
type ScaleResult struct {
	Bench      string        `json:"bench"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Summary    []ScaleSeries `json:"summary,omitempty"`
	Rows       []ScaleRow    `json:"rows"`
}

// ScaleWorkload builds the deterministic synthetic workload for one sweep
// point: ~pairs topic–subscriber pairs, 16 followings per subscriber over
// a head-heavy topic popularity (a few hot topics, a long tail), with
// rates skewed the same way — the shape that stresses both the per-pair
// packers (many placements) and CBP (many groups of very different
// volumes).
func ScaleWorkload(pairs int64) (*workload.Workload, error) {
	const followings = 16
	numSubs := int(pairs / followings)
	if numSubs < 1 {
		return nil, fmt.Errorf("experiments: scale size %d too small", pairs)
	}
	numTopics := int(pairs / 64)
	if numTopics < 32 {
		numTopics = 32
	}
	rng := rand.New(rand.NewSource(42))
	rates := make([]int64, numTopics)
	for t := range rates {
		rates[t] = 1 + int64(2000/(1+t%1009)) + rng.Int63n(16)
	}
	subOff := make([]int64, 1, numSubs+1)
	subTopics := make([]workload.TopicID, 0, numSubs*followings)
	pick := make([]workload.TopicID, 0, followings)
	for v := 0; v < numSubs; v++ {
		pick = pick[:0]
		for len(pick) < followings {
			// Cubing the uniform variate skews picks toward low topic IDs
			// (the hot head) without any per-pick allocation.
			u := rng.Float64()
			t := workload.TopicID(float64(numTopics) * u * u * u)
			dup := false
			for _, p := range pick {
				if p == t {
					dup = true
					break
				}
			}
			if !dup {
				pick = append(pick, t)
			}
		}
		start := len(subTopics)
		subTopics = append(subTopics, pick...)
		seg := subTopics[start:]
		for i := 1; i < len(seg); i++ { // insertion sort: 16 elements
			for j := i; j > 0 && seg[j] < seg[j-1]; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	return workload.FromCSR(rates, subOff, subTopics, nil, nil)
}

// scaleFleets builds the two fleet cases for a workload: a single-type
// fleet whose capacity holds ~scalePairsPerVM pairs, and a three-type
// fleet at 1×/2×/4× that capacity with sub-linear pricing (so mixing
// pays off).
func scaleFleets(sel *core.Selection) (model pricing.Model, hetero pricing.Fleet, err error) {
	w := sel.Workload()
	var maxRate int64
	for t := 0; t < w.NumTopics(); t++ {
		if r := w.Rate(workload.TopicID(t)); r > maxRate {
			maxRate = r
		}
	}
	out := sel.OutgoingRate() * MessageBytes
	targetVMs := sel.NumPairs() / scalePairsPerVM
	if targetVMs < 4 {
		targetVMs = 4
	}
	base := out / targetVMs
	if floor := 2 * maxRate * MessageBytes; base < floor {
		base = floor
	}
	model = pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = base

	types := []pricing.InstanceType{
		{Name: "s.small", HourlyRate: 100_000, LinkMbps: 1},
		{Name: "s.medium", HourlyRate: 190_000, LinkMbps: 2},
		{Name: "s.large", HourlyRate: 360_000, LinkMbps: 4},
	}
	hetero, err = pricing.NewFleetWithCapacities(types, []int64{base, 2 * base, 4 * base})
	return model, hetero, err
}

// RunScale measures stage-2 packing time at each size. Every measured
// allocation is verified against the selection before its timing is
// accepted, so a fast-but-wrong packer cannot produce a flattering sweep.
func RunScale(ctx context.Context, sizes []int64) (*ScaleResult, error) {
	if len(sizes) == 0 {
		sizes = ScaleSizes
	}
	res := &ScaleResult{Bench: "stage2-scale", GoMaxProcs: runtime.GOMAXPROCS(0)}
	prev := make(map[string]float64) // fleet/packer → seconds at previous size
	for _, n := range sizes {
		w, err := ScaleWorkload(n)
		if err != nil {
			return nil, err
		}
		sel := core.SelectAllPairs(w)
		// Force the selection's lazy topic-grouped view now, so the first
		// measured packer does not pay for building it.
		if w.NumTopics() > 0 {
			sel.SelectedSubscribers(0)
		}
		model, hetero, err := scaleFleets(sel)
		if err != nil {
			return nil, err
		}
		fleets := []struct {
			name  string
			fleet pricing.Fleet
		}{
			{"homogeneous", pricing.Fleet{}}, // model's single type
			{"hetero", hetero},
		}
		packers := []struct {
			name   string
			stage2 func(context.Context, *core.Selection, core.Config) (*core.Allocation, error)
			opts   core.OptFlags
		}{
			{"ffbp", core.FFBinPackingContext, 0},
			{"cbp", core.CustomBinPackingContext, core.OptAll},
		}
		for _, fl := range fleets {
			for _, p := range packers {
				cfg := core.Config{
					Tau:          1, // packing consumes the full selection; τ only gates normalize
					MessageBytes: MessageBytes,
					Model:        model,
					Fleet:        fl.fleet,
					Stage2:       p.stage2,
					Opts:         p.opts,
					Parallelism:  -1, // hetero rows measure the parallel portfolio
				}
				// Small sizes finish in microseconds, where a single
				// measurement is scheduler noise: warm up once untimed,
				// then repeat and keep the minimum, like the testing
				// package's benchmark loop.
				const reps = 5
				if _, err := core.PackSelection(ctx, sel, cfg); err != nil {
					return nil, fmt.Errorf("scale %d %s/%s: %w", n, fl.name, p.name, err)
				}
				var alloc *core.Allocation
				var elapsed float64
				for rep := 0; rep < reps; rep++ {
					start := time.Now()
					a, err := core.PackSelection(ctx, sel, cfg)
					d := time.Since(start).Seconds()
					if err != nil {
						return nil, fmt.Errorf("scale %d %s/%s: %w", n, fl.name, p.name, err)
					}
					if rep == 0 || d < elapsed {
						alloc, elapsed = a, d
					}
				}
				if err := core.VerifyAllocation(w, sel, alloc, cfg); err != nil {
					return nil, fmt.Errorf("scale %d %s/%s: invalid allocation: %w", n, fl.name, p.name, err)
				}
				key := fl.name + "/" + p.name
				row := ScaleRow{
					Pairs:       sel.NumPairs(),
					Fleet:       fl.name,
					Packer:      p.name,
					Seconds:     elapsed,
					PairsPerSec: float64(sel.NumPairs()) / elapsed,
					VMs:         alloc.NumVMs(),
				}
				if prevSec, ok := prev[key]; ok && prevSec > 0 {
					row.DoublingRatio = elapsed / prevSec
				}
				prev[key] = elapsed
				res.Rows = append(res.Rows, row)
			}
		}
	}
	for _, fleet := range []string{"homogeneous", "hetero"} {
		for _, packer := range []string{"ffbp", "cbp"} {
			if e := res.GrowthExponent(fleet, packer); e != 0 {
				res.Summary = append(res.Summary, ScaleSeries{
					Fleet:            fleet,
					Packer:           packer,
					GrowthExponent:   e,
					MaxDoublingRatio: res.MaxDoublingRatio(fleet, packer),
				})
			}
		}
	}
	return res, nil
}

// WriteJSON emits the sweep in the BENCH_5.json format.
func (r *ScaleResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MaxDoublingRatio reports the worst consecutive-size time ratio for one
// (fleet, packer) series, or 0 when fewer than two sizes ran — the
// headline near-linearity number (2 is perfectly linear; the naive
// packers sat near 4).
func (r *ScaleResult) MaxDoublingRatio(fleet, packer string) float64 {
	var worst float64
	for _, row := range r.Rows {
		if row.Fleet == fleet && row.Packer == packer && row.DoublingRatio > worst {
			worst = row.DoublingRatio
		}
	}
	return worst
}

// GrowthExponent fits T ∝ P^e over a whole (fleet, packer) series:
// log(T_last/T_first) / log(P_last/P_first). It is the noise-robust
// complement to the per-step ratios — a single cache-boundary or
// scheduler blip distorts one ratio but barely moves the end-to-end
// exponent. 1 is linear, 2 quadratic (the naive packers); the indexed
// engine targets ≲ 1.3 (per-step ratio < 2.5). Returns 0 when fewer
// than two sizes ran.
func (r *ScaleResult) GrowthExponent(fleet, packer string) float64 {
	var first, last *ScaleRow
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Fleet != fleet || row.Packer != packer {
			continue
		}
		if first == nil {
			first = row
		}
		last = row
	}
	if first == nil || last == first || first.Seconds <= 0 || first.Pairs >= last.Pairs {
		return 0
	}
	return math.Log(last.Seconds/first.Seconds) / math.Log(float64(last.Pairs)/float64(first.Pairs))
}

// Table renders the sweep.
func (r *ScaleResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Stage-2 scale sweep (indexed packers, GOMAXPROCS=%d)", r.GoMaxProcs),
		"pairs", "fleet", "packer", "stage2", "pairs/s", "VMs", "×/doubling")
	for _, row := range r.Rows {
		ratio := ""
		if row.DoublingRatio > 0 {
			ratio = fmt.Sprintf("%.2f", row.DoublingRatio)
		}
		t.AddRow(row.Pairs, row.Fleet, row.Packer,
			time.Duration(row.Seconds*float64(time.Second)).Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", row.PairsPerSec), row.VMs, ratio)
	}
	return t
}
