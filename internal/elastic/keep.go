package elastic

import (
	"sort"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// keepWithTopUp rebuilds the previous epoch's placements under the new
// workload snapshot and, where falling rates leave subscribers below
// τ_v = min(τ, demand), tops the allocation up by *adding* pairs instead of
// migrating existing ones. Pairs whose subscriber no longer follows the
// topic (churned away in the snapshot) are pruned during the rebuild —
// stopping a stream to an unsubscribed user is not churn, and keeping it
// would inflate the kept bill, overstate utilization against the scale-up
// guard, and let stale deliveries count toward satisfaction. The top-up is
// the incremental engine's own (core.Rehomer.TopUp): minimal overshoot
// first — the largest unplaced rate that still fits the remaining need,
// and only when none fits the smallest rate that closes it — so a
// 15-events/hour shortfall never drags in a 100k-events/hour bot topic.
// Each added pair lands on a VM already hosting the topic (most free
// first), then on the most-free VM with room for the topic's ingress, then
// on a fresh VM of the cheapest fitting solve-fleet type.
//
// Placements keep the (possibly headroom-derated) solveFleet capacities
// for packing decisions, while validity — every VM within capacity —
// is judged against trueFleet, so ordinary rate drift inside the headroom
// does not invalidate a kept allocation. A true-capacity overshoot from
// rising rates is not repaired here (that is a scale-up, which the
// controller hands to the solver), so ok=false in that case.
//
// It reports the repriced (and possibly topped-up) allocation, the number
// of pairs added, and whether the result is valid for the snapshot.
func keepWithTopUp(prev *core.Allocation, w *workload.Workload, cfg core.Config, solveFleet, trueFleet pricing.Fleet) (*core.Allocation, int64, bool) {
	msg := cfg.MessageBytes
	out := &core.Allocation{
		VMs:          make([]*core.VM, len(prev.VMs)),
		Fleet:        prev.Fleet,
		MessageBytes: msg,
	}
	for i, vm := range prev.VMs {
		nv := &core.VM{
			ID:                   vm.ID,
			Instance:             vm.Instance,
			CapacityBytesPerHour: vm.CapacityBytesPerHour,
			Placements:           make([]core.TopicPlacement, 0, len(vm.Placements)),
		}
		for _, p := range vm.Placements {
			if int(p.Topic) >= w.NumTopics() {
				return nil, 0, false
			}
			// Each kept VM gets its own placement slices: top-up appends
			// to Subs, and the previous allocation must survive untouched
			// for migration diffing. Subscribers that dropped the topic
			// are pruned here; a placement with no interested subscribers
			// left disappears entirely (with its ingress).
			subs := make([]workload.SubID, 0, len(p.Subs))
			for _, v := range p.Subs {
				if follows(w, v, p.Topic) {
					subs = append(subs, v)
				}
			}
			if len(subs) == 0 {
				continue
			}
			rb := w.Rate(p.Topic) * msg
			nv.Placements = append(nv.Placements, core.TopicPlacement{Topic: p.Topic, Subs: subs})
			nv.InBytesPerHour += rb
			nv.OutBytesPerHour += rb * int64(len(subs))
		}
		if nv.BytesPerHour() > trueCapacity(nv, trueFleet) {
			return nil, 0, false // rising rates: a scale-up, not a top-up
		}
		out.VMs[i] = nv
	}

	// Each subscriber's kept topics, ascending, form its selected row.
	// Placements hold each selected pair exactly once (a solver invariant
	// both re-solving and topping up preserve), so the row's rates sum to
	// what it receives. The top-up shares out's VM pointers, so placements
	// and deploys land directly in the kept allocation.
	rows := out.PairRows(w.NumTopics(), w.NumSubscribers())
	rh := core.NewRehomer(out, solveFleet)
	var added int64
	var kept []workload.TopicID
	count := func(workload.TopicID, int32) { added++ }
	for v := 0; v < w.NumSubscribers(); v++ {
		id := workload.SubID(v)
		need := w.TauV(id, cfg.Tau)
		kept = kept[:0]
		for _, e := range rows.Row(id) {
			kept = append(kept, e.Topic)
			need -= w.Rate(e.Topic)
		}
		if need <= 0 {
			continue
		}
		if err := rh.TopUp(w, id, kept, need, count); err != nil {
			return nil, 0, false // interests exhausted below τ_v, or no type fits
		}
	}
	return out, added, true
}

// follows reports whether v's (ascending) interest list contains t.
func follows(w *workload.Workload, v workload.SubID, t workload.TopicID) bool {
	ts := w.Topics(v)
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	return i < len(ts) && ts[i] == t
}
