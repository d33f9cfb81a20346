package topo

import (
	"cmp"
	"context"
	"slices"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Stage1Name is the registry name of SelectColocated, the
// co-location-preferring pair selection, for Planner options and other
// names that arrive from outside the program.
const Stage1Name = "topo-gsp"

func init() {
	if err := core.RegisterStrategy(Stage1Name, core.Strategy{SelectPairs: SelectColocated}); err != nil {
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
