package core

import (
	"context"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Part is one slice of a partitioned Stage-2 pack: the pairs it carries
// and the sub-fleet they may deploy on.
type Part struct {
	Pairs []workload.Pair
	Fleet pricing.Fleet
}

// PackParts is the split-pack-merge shared by the packers that partition a
// selection before packing it (the spot packer splits singleton from
// replicated topics, the topology packer splits by broker region). Each
// non-empty part packs with CBP under cfg.Opts against its own sub-fleet;
// the partial allocations merge in part order with dense VM IDs, and the
// result records cfg's effective fleet. The largest non-empty part (the
// first one on ties) reports to the stage observer and the others run
// silently, so the stage reports once. A part's packing error is wrapped
// with its index.
func PackParts(ctx context.Context, w *workload.Workload, cfg Config, parts []Part) (*Allocation, error) {
	lead := -1
	for i, p := range parts {
		if len(p.Pairs) > 0 && (lead < 0 || len(p.Pairs) > len(parts[lead].Pairs)) {
			lead = i
		}
	}
	var vms []*VM
	for i, p := range parts {
		if len(p.Pairs) == 0 {
			continue
		}
		sel, err := SelectionFromPairs(w, p.Pairs)
		if err != nil {
			return nil, err
		}
		pctx, pcfg := ctx, cfg
		pcfg.Fleet = p.Fleet
		if i != lead {
			pcfg.Observer = nil
			pctx = ContextWithObserver(ctx, nil)
		}
		alloc, err := CustomBinPackingContext(pctx, sel, pcfg)
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
