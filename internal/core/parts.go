package core

import (
	"context"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// packStage2 is one Stage-2 packing run of one portfolio member. Two facts
// of the input decide whether the selection is split before packing:
//
//   - a multi-region Config.Topology routes every selected pair to the
//     region with fleet capacity that meets Config.LatencySLOMillis at the
//     lowest publisher→broker plus broker→subscriber egress price (ties to
//     the lower RTT, then the lower region index); a pair with no such
//     region is infeasible;
//   - a fleet that offers spot types (pricing.IsSpot) pins the topics with
//     one selected subscriber to the on-demand types of their region, while
//     every other topic may use all of the region's types — unreplicated
//     work on reliable machines, replicated work wherever it is cheapest
//     (Beaumont et al.); singleton pairs in a region without on-demand
//     types are infeasible.
//
// The rules compose: route first, then pin within each region, the
// singleton part ahead of the rest. Each part packs with the configured
// packer (Config.Stage2, nil = CBP) through packParts. With neither rule,
// the packer runs on the selection as is — the paper's path.
func packStage2(ctx context.Context, sel *Selection, cfg Config) (*Allocation, error) {
	pack := cfg.Stage2
	if pack == nil {
		pack = CustomBinPackingContext
	}
	fleet := cfg.EffectiveFleet()
	regional := cfg.Topology != nil && cfg.Topology.NumRegions() > 1
	pin := false
	for i := 0; i < fleet.Len() && !pin; i++ {
		pin = pricing.IsSpot(fleet.Type(i).Name)
	}
	if !regional && !pin {
		return pack(ctx, sel, cfg)
	}
	parts, err := splitStage2(sel, cfg, fleet, regional, pin)
	if err != nil {
		return nil, err
	}
	return packParts(ctx, sel.Workload(), cfg, pack, parts)
}

// part is one slice of a split Stage-2 pack: the pairs it carries and the
// sub-fleet they may deploy on.
type part struct {
	pairs []workload.Pair
	fleet pricing.Fleet
}

// splitStage2 applies packStage2's rules and returns the parts in pack
// order: per region (index order), the singleton part and then the rest
// when pinning, or one part per region otherwise. Without a multi-region
// topology the whole fleet is region 0.
func splitStage2(sel *Selection, cfg Config, fleet pricing.Fleet, regional, pin bool) ([]part, error) {
	regions := []pricing.Fleet{fleet}
	if regional {
		regions = make([]pricing.Fleet, cfg.Topology.NumRegions())
		for r := range regions {
			regions[r] = fleet.Filter(func(it pricing.InstanceType) bool { return RegionOfInstance(cfg.Topology, it) == r })
		}
	}
	perRegion := 1
	if pin {
		perRegion = 2 // singletons, then the rest
	}
	parts := make([]part, len(regions)*perRegion)
	w := sel.Workload()
	for t := 0; t < w.NumTopics(); t++ {
		id := workload.TopicID(t)
		subs := sel.SelectedSubscribers(id)
		rest := 0
		if pin && len(subs) > 1 {
			rest = 1
		}
		for _, v := range subs {
			r := 0
			if regional {
				var err error
				if r, err = routePair(cfg, regions, w, id, v); err != nil {
					return nil, err
				}
			}
			p := &parts[r*perRegion+rest]
			p.pairs = append(p.pairs, workload.Pair{Topic: id, Sub: v})
		}
	}
	for i := range parts {
		p := &parts[i]
		if len(p.pairs) == 0 {
			continue
		}
		p.fleet = regions[i/perRegion]
		if pin && i%perRegion == 0 {
			p.fleet = p.fleet.Filter(func(it pricing.InstanceType) bool { return !pricing.IsSpot(it.Name) })
			if p.fleet.IsZero() {
				return nil, fmt.Errorf("%w: %d singleton pairs in region %d require on-demand capacity",
					ErrInfeasible, len(p.pairs), i/perRegion)
			}
		}
	}
	return parts, nil
}

// routePair picks the broker region of one pair: among regions with fleet
// capacity whose modeled RTT meets the SLO ceiling, the lowest
// publisher→broker plus broker→subscriber egress price, ties to the lower
// RTT, then the lower region index.
func routePair(cfg Config, regions []pricing.Fleet, w *workload.Workload, t workload.TopicID, v workload.SubID) (int, error) {
	topo, slo := cfg.Topology, cfg.LatencySLOMillis
	pr, sr := w.TopicRegion(t), w.SubscriberRegion(v)
	best := -1
	var bestCost pricing.MicroUSD
	var bestRTT int64
	for b := range regions {
		if regions[b].IsZero() {
			continue
		}
		rtt := PairRTTMillis(topo, pr, b, sr)
		if slo > 0 && rtt > slo {
			continue
		}
		c := topo.EgressPerGB(pr, b).Add(topo.EgressPerGB(b, sr))
		if best < 0 || c < bestCost || (c == bestCost && rtt < bestRTT) {
			best, bestCost, bestRTT = b, c, rtt
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%w: no SLO-feasible region with capacity for pair (topic %d, subscriber %d) under %d ms",
			ErrInfeasible, t, v, slo)
	}
	return best, nil
}

// packParts packs each non-empty part with pack against its own sub-fleet
// and merges the partial allocations in part order with dense VM IDs; the
// result records cfg's effective fleet. The largest non-empty part (the
// first one on ties) reports to the stage observer and the others run
// silently, so the stage reports once. A part's packing error is wrapped
// with its index.
func packParts(ctx context.Context, w *workload.Workload, cfg Config,
	pack func(context.Context, *Selection, Config) (*Allocation, error), parts []part) (*Allocation, error) {
	lead := -1
	for i, p := range parts {
		if len(p.pairs) > 0 && (lead < 0 || len(p.pairs) > len(parts[lead].pairs)) {
			lead = i
		}
	}
	var vms []*VM
	for i, p := range parts {
		if len(p.pairs) == 0 {
			continue
		}
		sel, err := SelectionFromPairs(w, p.pairs)
		if err != nil {
			return nil, err
		}
		pctx, pcfg := ctx, cfg
		pcfg.Fleet = p.fleet
		if i != lead {
			pcfg.Observer = nil
			pctx = ContextWithObserver(ctx, nil)
		}
		alloc, err := pack(pctx, sel, pcfg)
		if err != nil {
			return nil, fmt.Errorf("core: packing part %d: %w", i, err)
		}
		vms = append(vms, alloc.VMs...)
	}
	for i, vm := range vms {
		vm.ID = i
	}
	return &Allocation{VMs: vms, Fleet: cfg.EffectiveFleet(), MessageBytes: cfg.MessageBytes}, nil
}
