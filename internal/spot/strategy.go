package spot

import (
	"context"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// StrategyName is the registry name of PackRiskAware, for Planner options
// and other names that arrive from outside the program.
const StrategyName = "spot"

func init() {
	if err := core.RegisterStrategy(StrategyName, core.Strategy{Pack: PackRiskAware}); err != nil {
		panic(err)
	}
}

// PackRiskAware is the risk-aware stage-2 packer. It partitions the
// selection by topic replication degree: topics with a single selected
// subscriber are packed with CBP against the on-demand types only (a
// reclamation there would lose the topic's sole copy until repair), while
// replicated topics pack against the full fleet, where the risk-adjusted
// spot variants' lower rates win the deploy-type choice (a reclaimed
// replica costs a repair, never delivery — Beaumont et al.'s allocation
// rule). The two parts pack and merge through core.PackParts, singletons
// first.
//
// On a fleet without interruptible variants it degrades to plain CBP, so
// the strategy is safe as a standing default. A fleet with interruptible
// variants but no on-demand type (a single-type portfolio restriction)
// cannot pin singletons and reports infeasibility, which the portfolio
// skips.
func PackRiskAware(ctx context.Context, sel *core.Selection, cfg core.Config) (*core.Allocation, error) {
	fleet := cfg.EffectiveFleet()
	odTypes, odCaps := fleetPartition(fleet)
	if len(odTypes) == fleet.Len() { // no interruptible capacity offered
		return core.CustomBinPackingContext(ctx, sel, cfg)
	}

	w := sel.Workload()
	var singles, replicated []workload.Pair
	for t := 0; t < w.NumTopics(); t++ {
		id := workload.TopicID(t)
		subs := sel.SelectedSubscribers(id)
		switch {
		case len(subs) == 0:
		case len(subs) == 1:
			singles = append(singles, workload.Pair{Topic: id, Sub: subs[0]})
		default:
			for _, v := range subs {
				replicated = append(replicated, workload.Pair{Topic: id, Sub: v})
			}
		}
	}

	var odFleet pricing.Fleet
	if len(singles) > 0 {
		if len(odTypes) == 0 {
			return nil, fmt.Errorf("%w: %d singleton pairs require on-demand capacity", core.ErrInfeasible, len(singles))
		}
		var err error
		if odFleet, err = pricing.NewFleetWithCapacities(odTypes, odCaps); err != nil {
			return nil, err
		}
	}
	return core.PackParts(ctx, w, cfg, []core.Part{
		{Pairs: singles, Fleet: odFleet},
		{Pairs: replicated, Fleet: fleet},
	})
}

// fleetPartition returns the on-demand (non-interruptible) types of a
// fleet with their recorded capacities, in fleet order.
func fleetPartition(f pricing.Fleet) ([]pricing.InstanceType, []int64) {
	var types []pricing.InstanceType
	var caps []int64
	for i := 0; i < f.Len(); i++ {
		if IsSpot(f.Type(i).Name) {
			continue
		}
		types = append(types, f.Type(i))
		caps = append(caps, f.Capacity(i))
	}
	return types, caps
}
