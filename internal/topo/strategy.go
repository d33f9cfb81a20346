package topo

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Registry names of SelectColocated and PackTopo, for Planner options and
// other names that arrive from outside the program.
const (
	// Stage1Name selects the co-location-preferring pair selection.
	Stage1Name = "topo-gsp"
	// Stage2Name selects the SLO-feasibility-filtering regional packer.
	Stage2Name = "topo"
)

func init() {
	if err := core.RegisterStrategy(Stage1Name, core.Strategy{SelectPairs: SelectColocated}); err != nil {
		panic(err)
	}
	if err := core.RegisterStrategy(Stage2Name, core.Strategy{Pack: PackTopo}); err != nil {
		panic(err)
	}
}

// SelectColocated is the "topo-gsp" stage-1 selection. Without a
// multi-region topology (or on a region-agnostic workload) it IS
// GreedySelectPairsContext — the degenerate case delegates outright, so the
// selection is byte-identical to the paper's GSP by construction. With one,
// it runs the same per-subscriber greedy but prefers topics published in
// the subscriber's own region: co-located pairs never leave the region, so
// favoring them (at equal satisfaction) removes both the inter-region hop
// from the delivery path and the egress charge, at the price of sometimes
// carrying a slightly higher selected rate than pure rate-descending GSP.
// Like GSP it reports the stage to the observer in subscriber units.
func SelectColocated(ctx context.Context, w *workload.Workload, cfg core.Config) (*core.Selection, error) {
	t := cfg.Topology
	if t == nil || t.NumRegions() <= 1 || !w.HasRegions() {
		return core.GreedySelectPairsContext(ctx, w, cfg)
	}
	start := time.Now()
	n := w.NumSubscribers()
	obs := core.ResolveObserver(ctx, cfg)
	if obs != nil {
		obs.OnStageStart(core.StageSelect, int64(n))
	}
	type scored struct {
		rate  int64
		topic workload.TopicID
		coloc bool
	}
	var scratch []scored
	pairs := make([]workload.Pair, 0, w.NumPairs()/2+1)
	for v := 0; v < n; v++ {
		if v%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		id := workload.SubID(v)
		sr := w.SubscriberRegion(id)
		ts := w.Topics(id)
		scratch = scratch[:0]
		var demand int64
		for _, tp := range ts {
			r := w.Rate(tp)
			demand += r
			scratch = append(scratch, scored{rate: r, topic: tp, coloc: w.TopicRegion(tp) == sr})
		}
		tauV := cfg.Tau
		if demand < tauV {
			tauV = demand
		}
		if tauV == demand {
			for _, s := range scratch {
				pairs = append(pairs, workload.Pair{Topic: s.topic, Sub: id})
			}
			continue
		}
		slices.SortFunc(scratch, func(a, b scored) int {
			if a.coloc != b.coloc {
				if a.coloc {
					return -1
				}
				return 1
			}
			if a.rate != b.rate {
				return cmp.Compare(b.rate, a.rate) // rate descending
			}
			return cmp.Compare(a.topic, b.topic)
		})
		rem := tauV
		// fallback is the smallest-rate skipped topic (co-located wins
		// ties), taken when nothing remaining fits within rem.
		fallback := -1
		for i := range scratch {
			if rem <= 0 {
				break
			}
			if scratch[i].rate <= rem {
				pairs = append(pairs, workload.Pair{Topic: scratch[i].topic, Sub: id})
				rem -= scratch[i].rate
				continue
			}
			if fallback < 0 || scratch[i].rate < scratch[fallback].rate ||
				(scratch[i].rate == scratch[fallback].rate && scratch[i].coloc && !scratch[fallback].coloc) {
				fallback = i
			}
		}
		if rem > 0 {
			pairs = append(pairs, workload.Pair{Topic: scratch[fallback].topic, Sub: id})
		}
	}
	sel, err := core.SelectionFromPairs(w, pairs)
	if err != nil {
		return nil, err
	}
	core.FinishStage(obs, core.StageSelect, int64(n), int64(n), time.Since(start))
	return sel, nil
}

// PackTopo is the "topo" stage-2 packer. Without a multi-region
// topology it IS CustomBinPackingContext — the degenerate case delegates
// outright, so the allocation is byte-identical to the paper's CBP by
// construction. With one, it filters candidate broker regions by SLO
// feasibility before any packing happens: every selected pair is routed to
// the region minimizing its per-GB egress price (publisher→broker plus
// broker→subscriber) among regions that hold fleet capacity and whose
// modeled publisher→broker→subscriber RTT meets the ceiling, ties broken
// by lower RTT then region index. core.PackParts then packs each region's
// pairs with the paper's CBP against that region's sub-fleet (part i is
// region i) and merges the partial allocations.
//
// A pair with no feasible region reports infeasibility (which the
// heterogeneous portfolio skips for single-type restrictions whose sole
// region cannot meet the ceiling).
func PackTopo(ctx context.Context, sel *core.Selection, cfg core.Config) (*core.Allocation, error) {
	t := cfg.Topology
	if t == nil || t.NumRegions() <= 1 {
		return core.CustomBinPackingContext(ctx, sel, cfg)
	}
	fleet := cfg.EffectiveFleet()
	n := t.NumRegions()
	typesByRegion := make([][]pricing.InstanceType, n)
	capsByRegion := make([][]int64, n)
	for i := 0; i < fleet.Len(); i++ {
		r := core.RegionOfInstance(t, fleet.Type(i))
		typesByRegion[r] = append(typesByRegion[r], fleet.Type(i))
		capsByRegion[r] = append(capsByRegion[r], fleet.Capacity(i))
	}

	w := sel.Workload()
	slo := cfg.LatencySLOMillis
	parts := make([]core.Part, n)
	for topic := 0; topic < w.NumTopics(); topic++ {
		id := workload.TopicID(topic)
		subs := sel.SelectedSubscribers(id)
		if len(subs) == 0 {
			continue
		}
		pr := w.TopicRegion(id)
		for _, v := range subs {
			sr := w.SubscriberRegion(v)
			best := -1
			var bestCost pricing.MicroUSD
			var bestRTT int64
			for b := 0; b < n; b++ {
				if len(typesByRegion[b]) == 0 {
					continue
				}
				rtt := PairRTTMillis(t, pr, b, sr)
				if slo > 0 && rtt > slo {
					continue
				}
				c := t.EgressPerGB(pr, b).Add(t.EgressPerGB(b, sr))
				if best < 0 || c < bestCost || (c == bestCost && rtt < bestRTT) {
					best, bestCost, bestRTT = b, c, rtt
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("%w: no SLO-feasible region with capacity for pair (topic %d, subscriber %d) under %d ms",
					core.ErrInfeasible, id, v, slo)
			}
			parts[best].Pairs = append(parts[best].Pairs, workload.Pair{Topic: id, Sub: v})
		}
	}
	for r := range parts {
		if len(parts[r].Pairs) == 0 {
			continue
		}
		var err error
		if parts[r].Fleet, err = pricing.NewFleetWithCapacities(typesByRegion[r], capsByRegion[r]); err != nil {
			return nil, err
		}
	}
	return core.PackParts(ctx, w, cfg, parts)
}
