package core

import (
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// This file retains the literal O(P·V) stage-2 packers — every placement
// decision re-scans the deployed fleet — exactly as they were before the
// slot table (vmindex.go) replaced them, with the per-VM state they ran
// on. They are test-only oracles: TestDifferentialIndexedMatchesNaive
// pins the indexed packers byte-identical to these on randomized
// workloads, fleets, and option sets, and BenchmarkStage2IndexedVsNaive
// keeps the complexity gap visible. They are exported so the package's
// external test files can benchmark them too.

// vmState is a VM being packed by the oracles: the exported VM plus the
// bookkeeping the scans need (free capacity, topic-presence index).
type vmState struct {
	vm       *VM
	free     int64
	topicIdx map[workload.TopicID]int // topic → index into vm.Placements
}

func newVMState(id int, it pricing.InstanceType, capacity int64) *vmState {
	return &vmState{
		vm:       &VM{ID: id, Instance: it, CapacityBytesPerHour: capacity},
		free:     capacity,
		topicIdx: make(map[workload.TopicID]int),
	}
}

func (b *vmState) has(t workload.TopicID) bool {
	_, ok := b.topicIdx[t]
	return ok
}

// place assigns subs of topic t (rate rb bytes/hour each) to the VM,
// charging rb per subscriber (outgoing) plus rb once if the topic is new to
// this VM (incoming), and reports whether it was new. The caller has
// already verified capacity.
func (b *vmState) place(t workload.TopicID, rb int64, subs []workload.SubID) (newTopic bool) {
	idx, ok := b.topicIdx[t]
	if !ok {
		idx = len(b.vm.Placements)
		b.topicIdx[t] = idx
		b.vm.Placements = append(b.vm.Placements, TopicPlacement{Topic: t})
		b.vm.InBytesPerHour += rb
		b.free -= rb
	}
	p := &b.vm.Placements[idx]
	p.Subs = append(p.Subs, subs...)
	out := rb * int64(len(subs))
	b.vm.OutBytesPerHour += out
	b.free -= out
	return !ok
}

func finishAllocation(vms []*vmState, fleet pricing.Fleet, cfg Config) *Allocation {
	out := &Allocation{
		VMs:          make([]*VM, len(vms)),
		Fleet:        fleet,
		MessageBytes: cfg.MessageBytes,
	}
	for i, b := range vms {
		out.VMs[i] = b.vm
	}
	return out
}

// deltaFor reports the bandwidth this VM would gain by hosting one more pair
// of topic t.
func (b *vmState) deltaFor(t workload.TopicID, rb int64) int64 {
	if b.has(t) {
		return rb
	}
	return 2 * rb
}

// FFBinPackingNaive is the reference first-fit packer: per pair, a linear
// scan over all deployed VMs (the paper's Alg. 3 with the exact capacity
// delta). Semantics are identical to FFBinPackingContext.
func FFBinPackingNaive(sel *Selection, cfg Config) (*Allocation, error) {
	fleet := cfg.EffectiveFleet()
	maxCap := fleet.MaxCapacity()
	msg := cfg.MessageBytes
	var vms []*vmState
	var err error
	one := make([]workload.SubID, 1)
	sel.Pairs(func(p workload.Pair) bool {
		rb := sel.w.Rate(p.Topic) * msg
		if 2*rb > maxCap {
			err = ErrInfeasible
			return false
		}
		one[0] = p.Sub
		for _, b := range vms {
			if b.deltaFor(p.Topic, rb) <= b.free {
				b.place(p.Topic, rb, one)
				return true
			}
		}
		i := pickFittingType(fleet, 2*rb)
		b := newVMState(len(vms), fleet.Type(i), fleet.Capacity(i))
		b.place(p.Topic, rb, one)
		vms = append(vms, b)
		return true
	})
	if err != nil {
		return nil, err
	}
	return finishAllocation(vms, fleet, cfg), nil
}

// CustomBinPackingNaive is the reference CBP packer: most-free-VM and
// first-fit picks scan all deployed VMs per topic group, and the Alg. 7
// cost decision simulates distribution with an O(V) argmax per step.
// Semantics are identical to CustomBinPackingContext for every OptFlags
// combination.
func CustomBinPackingNaive(sel *Selection, cfg Config) (*Allocation, error) {
	fleet := cfg.EffectiveFleet()
	maxCap := fleet.MaxCapacity()
	msg := cfg.MessageBytes

	groups := buildGroups(sel, msg)
	if cfg.Opts&OptExpensiveTopicFirst != 0 {
		sortGroupsByVolume(groups)
	}

	var (
		vms      []*vmState
		cur      *vmState // most recently deployed VM
		totalBW  int64    // running Σ bw_b (bytes/hour), for Alg. 7
		costOpts = cfg.Opts&OptCostBased != 0
		freeOpts = cfg.Opts&OptMostFreeVM != 0
	)
	addBW := func(d int64) { totalBW += d }

	for _, g := range groups {
		if 2*g.rb > maxCap {
			return nil, ErrInfeasible
		}
		need := g.rb * int64(len(g.subs)+1)
		if cur != nil && need <= cur.free {
			cur.place(g.topic, g.rb, g.subs)
			addBW(need)
			continue
		}

		remaining := g.subs
		distribute := true
		if costOpts {
			distribute = cheaperToDistribute(vms, g, fleet, totalBW, cfg.Model)
		}
		if distribute {
			for len(remaining) > 0 {
				b := pickExistingVM(vms, g, freeOpts)
				if b == nil {
					break
				}
				// Capacity available for pairs on b.
				avail := b.free
				if !b.has(g.topic) {
					avail -= g.rb
				}
				k := avail / g.rb
				if k <= 0 {
					break
				}
				if k > int64(len(remaining)) {
					k = int64(len(remaining))
				}
				before := b.free
				b.place(g.topic, g.rb, remaining[:k])
				addBW(before - b.free)
				remaining = remaining[k:]
			}
		}
		// Leftovers (or the whole group when deploying fresh is cheaper)
		// go to newly deployed VMs of the cost-optimal size, filled to
		// capacity.
		for len(remaining) > 0 {
			ti := pickDeployType(fleet, g.rb, int64(len(remaining)))
			cap := fleet.Capacity(ti)
			b := newVMState(len(vms), fleet.Type(ti), cap)
			vms = append(vms, b)
			cur = b
			k := cap/g.rb - 1 // one slot of rb is the incoming stream
			if k > int64(len(remaining)) {
				k = int64(len(remaining))
			}
			before := b.free
			b.place(g.topic, g.rb, remaining[:k])
			addBW(before - b.free)
			remaining = remaining[k:]
		}
	}
	return finishAllocation(vms, fleet, cfg), nil
}

// BFDBinPackingNaive is the reference best-fit-decreasing packer: per
// item, a linear scan for the tightest fitting VM. Semantics are identical
// to BFDBinPackingContext.
func BFDBinPackingNaive(sel *Selection, cfg Config) (*Allocation, error) {
	fleet := cfg.EffectiveFleet()
	items, err := bfdItems(sel, fleet.MaxCapacity(), cfg.MessageBytes)
	if err != nil {
		return nil, err
	}

	var vms []*vmState
	one := make([]workload.SubID, 1)
	for _, it := range items {
		var best *vmState
		var bestFree int64
		for _, b := range vms {
			delta := b.deltaFor(it.pair.Topic, it.rb)
			if delta <= b.free && (best == nil || b.free < bestFree) {
				best, bestFree = b, b.free
			}
		}
		if best == nil {
			ti := pickFittingType(fleet, 2*it.rb)
			best = newVMState(len(vms), fleet.Type(ti), fleet.Capacity(ti))
			vms = append(vms, best)
		}
		one[0] = it.pair.Sub
		best.place(it.pair.Topic, it.rb, one)
	}
	return finishAllocation(vms, fleet, cfg), nil
}

// pickExistingVM chooses the deployed VM to receive (part of) group g:
// the one with most free capacity when mostFree is set (optimization (d)),
// otherwise the first deployed VM with room. It returns nil when no VM can
// host at least one pair of g. This is the naive reference the vmIndex
// queries replicate.
func pickExistingVM(vms []*vmState, g topicGroup, mostFree bool) *vmState {
	needFor := func(b *vmState) int64 {
		if b.has(g.topic) {
			return g.rb
		}
		return 2 * g.rb
	}
	if mostFree {
		var best *vmState
		for _, b := range vms {
			if b.free >= needFor(b) && (best == nil || b.free > best.free) {
				best = b
			}
		}
		return best
	}
	for _, b := range vms {
		if b.free >= needFor(b) {
			return b
		}
	}
	return nil
}

// cheaperToDistribute implements Alg. 7 over a heterogeneous fleet: it
// compares the modeled total cost of (A) deploying fresh, cost-optimally
// sized VMs for group g against (B) spreading g over the existing VMs
// (most-free first, leftovers on fresh VMs), and reports whether (B) is
// strictly cheaper. Rentals of already-deployed VMs are identical on both
// sides and cancel. The simulation never mutates the packer state. This
// naive form copies every VM's free capacity and re-scans them per
// simulation step; the indexed packer runs the same simulation on the
// segment tree with rollback (vmIndex.cheaperToDistribute).
func cheaperToDistribute(vms []*vmState, g topicGroup, f pricing.Fleet, totalBW int64, m pricing.Model) bool {
	n := int64(len(g.subs))
	if n == 0 {
		return true
	}
	// (A) all pairs on fresh VMs.
	freshRental, freshBW, _, ok := freshPlan(f, m, g.rb, n)
	if !ok {
		// No fleet type can host even one pair; distribution is the only
		// option (the caller guards 2·rb ≤ maxCap, so this is
		// unreachable, but keep the safe answer).
		return true
	}
	costNew := freshRental + m.BandwidthCost(m.TransferBytes(totalBW+freshBW))

	// (B) simulate distribution over existing VMs, most free first.
	frees := make([]int64, len(vms))
	for i, b := range vms {
		frees[i] = b.free
	}
	remaining := n
	var hostedVMs int64 // VMs that newly host the topic (incoming copies)
	for remaining > 0 {
		best := -1
		for i, fr := range frees {
			if fr >= 2*g.rb && (best == -1 || fr > frees[best]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		k := frees[best]/g.rb - 1
		if k > remaining {
			k = remaining
		}
		frees[best] -= g.rb * (k + 1)
		hostedVMs++
		remaining -= k
	}
	extraRental, extraBW, _, _ := freshPlan(f, m, g.rb, remaining)
	bwDist := totalBW + g.rb*(n-remaining+hostedVMs) + extraBW
	costDist := extraRental + m.BandwidthCost(m.TransferBytes(bwDist))
	return costDist < costNew
}
