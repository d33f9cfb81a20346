package core

import (
	"cmp"
	"context"
	"slices"
	"time"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// BFDBinPacking is a best-fit-decreasing baseline packer: pairs are sorted
// by topic rate (non-increasing) and each is placed on the deployed VM with
// the least free capacity that still fits it. It is not part of the paper's
// ladder — the paper compares against first-fit — but BFD is the classic
// stronger bin-packing heuristic, so it quantifies how much of CBP's
// advantage comes from topic grouping rather than from better item
// ordering alone (see BenchmarkAblationBestFit).
//
// Like FFBP it works at pair granularity and therefore still splits topics
// across VMs and pays duplicated incoming streams.
func BFDBinPacking(sel *Selection, cfg Config) (*Allocation, error) {
	return BFDBinPackingContext(context.Background(), sel, cfg)
}

// BFDBinPackingContext is BFDBinPacking with context cancellation and
// Config.Observer progress callbacks — the Stage 2 the mcss Planner names
// "bfd".
//
// "Tightest deployed VM that fits" is answered by an ordered
// free-capacity index (a treap keyed by (free, VM index)): the ceiling
// query at 2·rb yields the tightest VM that can take the topic's incoming
// stream plus one pair, and the per-topic host list supplies the tightest
// VM that already hosts the topic and needs only rb more. The
// lexicographically smaller (free, index) of the two candidates is
// exactly the VM the O(P·V) reference scan selects, which the
// differential property tests enforce against the test-only oracle.
func BFDBinPackingContext(ctx context.Context, sel *Selection, cfg Config) (*Allocation, error) {
	cfg.Observer = ResolveObserver(ctx, cfg)
	start := time.Now()
	fleet := cfg.EffectiveFleet()
	msg := cfg.MessageBytes
	tk := newTicker(ctx, cfg.Observer, StagePack, sel.NumPairs())

	items, err := bfdItems(sel, fleet.MaxCapacity(), msg)
	if err != nil {
		return nil, err
	}

	ix := newVMIndex(true)
	one := make([]workload.SubID, 1)
	for _, it := range items {
		if err := tk.tick(1); err != nil {
			return nil, err
		}
		// Candidate 1: the tightest VM with room for incoming + pair.
		best := int(ix.order.ceiling(2 * it.rb))
		var bestFree int64
		if best >= 0 {
			bestFree = ix.vms[best].free
		}
		// Candidate 2: the tightest VM already hosting the topic, which
		// needs only the outgoing rate. Hosts with free ≥ 2·rb also appear
		// under candidate 1; the lexicographic minimum is unaffected.
		if h, hf := ix.tightestHost(it.pair.Topic, it.rb); h >= 0 {
			if best < 0 || hf < bestFree || (hf == bestFree && h < best) {
				best, bestFree = h, hf
			}
		}
		var b *vmState
		if best >= 0 {
			b = ix.vms[best]
		} else {
			ti := pickFittingType(fleet, 2*it.rb)
			b = ix.deploy(fleet.Type(ti), fleet.Capacity(ti))
		}
		one[0] = it.pair.Sub
		ix.place(b, it.pair.Topic, it.rb, one)
	}
	tk.finish(time.Since(start))
	return ix.finish(fleet, cfg), nil
}

// bfdItem is one pair with its precomputed rate, in BFD's decreasing sort
// order.
type bfdItem struct {
	pair workload.Pair
	rb   int64
}

// bfdItems collects and sorts the selection for best-fit-decreasing:
// non-increasing rate, ties by topic then subscriber.
func bfdItems(sel *Selection, maxCap, msg int64) ([]bfdItem, error) {
	items := make([]bfdItem, 0, sel.NumPairs())
	var err error
	sel.Pairs(func(p workload.Pair) bool {
		rb := sel.w.Rate(p.Topic) * msg
		if 2*rb > maxCap {
			err = errTopicTooLarge(p.Topic, rb, maxCap)
			return false
		}
		items = append(items, bfdItem{pair: p, rb: rb})
		return true
	})
	if err != nil {
		return nil, err
	}
	// (topic, sub) pairs are unique, so the order is total and the
	// unstable sort is deterministic.
	slices.SortFunc(items, func(a, b bfdItem) int {
		if a.rb != b.rb {
			return cmp.Compare(b.rb, a.rb) // non-increasing rate
		}
		if a.pair.Topic != b.pair.Topic {
			return cmp.Compare(a.pair.Topic, b.pair.Topic)
		}
		return cmp.Compare(a.pair.Sub, b.pair.Sub)
	})
	return items, nil
}
