package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// pickFittingType returns the lowest-rate fleet type whose capacity fits
// the given load (the first such type — i.e. the smaller capacity — on
// rate ties), or -1 when none does. The pair packers call it with 2·rb
// after checking the largest type takes that much, so there it always
// finds one; the incremental inserter handles -1.
func pickFittingType(f pricing.Fleet, need int64) int {
	best := -1
	for i := 0; i < f.Len(); i++ {
		if f.Capacity(i) < need {
			continue
		}
		if best < 0 || f.Type(i).HourlyRate < f.Type(best).HourlyRate {
			best = i
		}
	}
	return best
}

// pickDeployType chooses which instance size to deploy next for a topic
// group with `remaining` pairs of rb bytes/hour each: the type minimizing
// modeled rental cost per byte served on that VM. A type with capacity c
// serves k = min(c/rb − 1, remaining) pairs (one rb slot goes to the
// incoming stream), so the score is rate / (k·rb); rb cancels in the
// comparison. Large groups therefore favor big instances (the incoming
// stream amortizes over more pairs) while a short tail favors the cheapest
// instance that covers it. Types that cannot host even one pair are
// skipped; the caller guarantees at least one can. Ties go to the lower
// hourly rate, then the smaller capacity.
func pickDeployType(f pricing.Fleet, rb, remaining int64) int {
	best := -1
	var bestK int64
	for i := 0; i < f.Len(); i++ {
		k := f.Capacity(i)/rb - 1
		if k <= 0 {
			continue
		}
		if k > remaining {
			k = remaining
		}
		if best < 0 {
			best, bestK = i, k
			continue
		}
		// rate_i/k_i < rate_best/k_best ⇔ rate_i·k_best < rate_best·k_i.
		li := int64(f.Type(i).HourlyRate) * bestK
		lb := int64(f.Type(best).HourlyRate) * k
		if li < lb || (li == lb && f.Type(i).HourlyRate < f.Type(best).HourlyRate) {
			best, bestK = i, k
		}
	}
	return best
}

// FFBinPackingContext implements the paper's Alg. 3, the Stage 2 the
// mcss Planner names "ffbp": pairs are considered one at a time in
// selection order and placed on the first already-deployed VM with room,
// deploying a new VM when none fits. With a heterogeneous fleet the fresh
// VM is the cheapest instance that can host the pair. The context is
// checked every checkInterval pairs, and Config.Observer gets progress
// callbacks.
//
// The capacity test uses the true bandwidth delta (outgoing rate plus the
// incoming rate when the topic first lands on the VM), so that bw_b ≤ BC_b
// always holds. The paper's literal `ev_t ≤ BC − bw_b` test ignores the
// incoming increment and can overshoot BC_b by one topic rate; this
// implementation does not reproduce that overshoot.
//
// "First deployed VM with room" is answered on the slot table in O(log V)
// by its positional segment tree over VM indices (maximum free capacity
// per subtree), combined with the topic's host list so the exact rb-vs-2rb
// capacity delta is preserved. The result is byte-identical to the O(P·V)
// reference scan (the test-only FFBinPackingNaive oracle), which the
// differential property tests enforce.
func FFBinPackingContext(ctx context.Context, sel *Selection, cfg Config) (*Allocation, error) {
	cfg.Observer = ResolveObserver(ctx, cfg)
	start := time.Now()
	fleet := cfg.EffectiveFleet()
	maxCap := fleet.MaxCapacity()
	msg := cfg.MessageBytes
	tk := newTicker(ctx, cfg.Observer, StagePack, sel.NumPairs())
	ix := newVMIndex(sel, fleet, msg)
	var err error
	one := make([]workload.SubID, 1)
	sel.Pairs(func(p workload.Pair) bool {
		if err = tk.tick(1); err != nil {
			return false
		}
		rb := sel.w.Rate(p.Topic) * msg
		if 2*rb > maxCap {
			err = errTopicTooLarge(p.Topic, rb, maxCap)
			return false
		}
		one[0] = p.Sub
		target := ix.firstFit(p.Topic, rb)
		if target < 0 {
			i := pickFittingType(fleet, 2*rb)
			target = ix.deploy(fleet.Type(i), fleet.Capacity(i))
		}
		ix.place(target, p.Topic, rb, one)
		return true
	})
	if err != nil {
		return nil, err
	}
	tk.finish(time.Since(start))
	return ix.alloc, nil
}

// topicGroup is one topic with its selected subscribers, as CBP consumes
// them.
type topicGroup struct {
	topic workload.TopicID
	rb    int64 // rate in bytes/hour
	subs  []workload.SubID
}

// sortGroupsByVolume orders groups by non-increasing total selected volume
// ev_t·|pairs| — the argmax of Alg. 4 line 3 — with ties to the lower
// topic ID. The topic tie-break makes the order total (one group per
// topic), so the unstable sort is deterministic and stability would buy
// nothing.
func sortGroupsByVolume(groups []topicGroup) {
	slices.SortFunc(groups, func(a, b topicGroup) int {
		wa := a.rb * int64(len(a.subs))
		wb := b.rb * int64(len(b.subs))
		if wa != wb {
			return cmp.Compare(wb, wa)
		}
		return cmp.Compare(a.topic, b.topic)
	})
}

// CustomBinPackingContext implements the paper's Alg. 4 (CBP) generalized
// to mixed-instance fleets — the default Stage 2, which the mcss Planner
// names "cbp". Grouping of a topic's pairs is inherent; cfg.Opts toggles
// the paper's optimizations (c) most-expensive-topic-first, (d)
// most-free-VM-first, and (e) the cost-model-based decision between
// distributing over existing VMs and deploying fresh ones (Alg. 7). Every
// fresh deployment picks its instance size by modeled cost per byte served
// (see pickDeployType), which is how hot topics land on big instances and
// the tail on small ones. The context is checked once per topic group, in
// checkInterval batches weighted by group size, and Config.Observer gets
// progress callbacks.
//
// Like FFBinPackingContext it packs on the slot table: most-free-VM picks
// descend the free-capacity segment tree to the leftmost maximum,
// first-fit picks to the first slot with room, and the Alg. 7 what-if
// simulation runs against the tree with rollback instead of copying every
// VM's free capacity per group. Byte-identical to the test-only
// CustomBinPackingNaive oracle.
func CustomBinPackingContext(ctx context.Context, sel *Selection, cfg Config) (*Allocation, error) {
	cfg.Observer = ResolveObserver(ctx, cfg)
	start := time.Now()
	fleet := cfg.EffectiveFleet()
	maxCap := fleet.MaxCapacity()
	msg := cfg.MessageBytes
	tk := newTicker(ctx, cfg.Observer, StagePack, sel.NumPairs())

	groups := buildGroups(sel, msg)
	if cfg.Opts&OptExpensiveTopicFirst != 0 {
		sortGroupsByVolume(groups)
	}

	var (
		ix       = newVMIndex(sel, fleet, msg)
		cur      = int32(-1) // most recently deployed slot
		totalBW  int64       // running Σ bw_b (bytes/hour), for Alg. 7
		costOpts = cfg.Opts&OptCostBased != 0
		freeOpts = cfg.Opts&OptMostFreeVM != 0
	)
	// put places subs of g on slot b and adds what they cost to totalBW.
	put := func(b int32, g topicGroup, subs []workload.SubID) {
		before := ix.free(b)
		ix.place(b, g.topic, g.rb, subs)
		totalBW += before - ix.free(b)
	}

	for _, g := range groups {
		// One tick per group, weighted by its pair count, so cancellation
		// latency is bounded in pairs even when groups are huge.
		if err := tk.tick(int64(len(g.subs))); err != nil {
			return nil, err
		}
		if 2*g.rb > maxCap {
			return nil, errTopicTooLarge(g.topic, g.rb, maxCap)
		}
		if cur >= 0 && g.rb*int64(len(g.subs)+1) <= ix.free(cur) {
			put(cur, g, g.subs)
			continue
		}

		remaining := g.subs
		distribute := true
		if costOpts {
			distribute = ix.cheaperToDistribute(g, fleet, totalBW, cfg.Model)
		}
		for distribute && len(remaining) > 0 {
			b := ix.pickExisting(g, freeOpts)
			if b < 0 {
				break
			}
			// b has room for the incoming stream plus at least one pair.
			k := min((ix.free(b)-g.rb)/g.rb, int64(len(remaining)))
			put(b, g, remaining[:k])
			remaining = remaining[k:]
		}
		// Leftovers (or the whole group when deploying fresh is cheaper)
		// go to newly deployed VMs of the cost-optimal size, filled to
		// capacity.
		for len(remaining) > 0 {
			ti := pickDeployType(fleet, g.rb, int64(len(remaining)))
			cap := fleet.Capacity(ti)
			cur = ix.deploy(fleet.Type(ti), cap)
			// One slot of rb is the incoming stream.
			k := min(cap/g.rb-1, int64(len(remaining)))
			put(cur, g, remaining[:k])
			remaining = remaining[k:]
		}
	}
	tk.finish(time.Since(start))
	return ix.alloc, nil
}

// pickExisting is the indexed form of pickExistingVM, returning a slot or
// -1: the first slot with room for the topic's incoming stream plus one
// pair (free ≥ 2rb), or under mostFree the leftmost most-free slot if it
// has that room. pickExistingVM also admits a VM already hosting the
// topic with free ≥ rb, but within one CBP run none exists: the topic is
// one group, and each distribute pick either leaves its VM below rb free
// or takes the rest of the group.
func (ix *vmIndex) pickExisting(g topicGroup, mostFree bool) int32 {
	if !mostFree {
		return int32(ix.tree.firstAtLeast(2 * g.rb))
	}
	if m, idx := ix.tree.maxFree(); m >= 2*g.rb {
		return int32(idx)
	}
	return -1
}

// cheaperToDistribute is the indexed form of the naive helper of the same
// name (see naive_test.go for the cost comparison it implements). The
// distribution simulation repeatedly takes the most-free VM from the
// segment tree, hypothetically updates it, and unwinds every touched leaf
// afterwards — O(steps·log V) with zero allocations in steady state,
// instead of the naive copy of all frees plus an O(V) argmax per step.
// The tie-break among equally-free VMs cannot affect the aggregate outcome
// (both candidates yield the same k and the same new free value), so the
// decision is identical to the naive simulation's.
func (ix *vmIndex) cheaperToDistribute(g topicGroup, f pricing.Fleet, totalBW int64, m pricing.Model) bool {
	n := int64(len(g.subs))
	// (A) all pairs on fresh VMs; the caller guards 2·rb ≤ maxCap, so
	// some fleet type hosts a pair.
	freshRental, freshBW, _, _ := freshPlan(f, m, g.rb, n)
	costNew := freshRental + m.BandwidthCost(m.TransferBytes(totalBW+freshBW))

	// (B) simulate distribution over existing VMs, most free first, on the
	// tree itself; roll back afterwards.
	ix.simIdx = ix.simIdx[:0]
	ix.simOld = ix.simOld[:0]
	remaining := n
	var hostedVMs int64 // VMs that newly host the topic (incoming copies)
	for remaining > 0 {
		fr, idx := ix.tree.maxFree()
		if idx < 0 || fr < 2*g.rb {
			break
		}
		k := fr/g.rb - 1
		if k > remaining {
			k = remaining
		}
		ix.simIdx = append(ix.simIdx, int32(idx))
		ix.simOld = append(ix.simOld, fr)
		ix.tree.set(idx, fr-g.rb*(k+1))
		hostedVMs++
		remaining -= k
	}
	for i := len(ix.simIdx) - 1; i >= 0; i-- {
		ix.tree.set(int(ix.simIdx[i]), ix.simOld[i])
	}
	extraRental, extraBW, _, _ := freshPlan(f, m, g.rb, remaining)
	bwDist := totalBW + g.rb*(n-remaining+hostedVMs) + extraBW
	costDist := extraRental + m.BandwidthCost(m.TransferBytes(bwDist))
	return costDist < costNew
}

// buildGroups collects the selected subscribers per topic, in topic-ID order.
func buildGroups(sel *Selection, msg int64) []topicGroup {
	w := sel.w
	groups := make([]topicGroup, 0, w.NumTopics())
	for t := 0; t < w.NumTopics(); t++ {
		subs := sel.SelectedSubscribers(workload.TopicID(t))
		if len(subs) == 0 {
			continue
		}
		groups = append(groups, topicGroup{
			topic: workload.TopicID(t),
			rb:    w.Rate(workload.TopicID(t)) * msg,
			subs:  subs,
		})
	}
	return groups
}

// freshPlan simulates packing n pairs of rb bytes/hour onto freshly
// deployed VMs, each sized by pickDeployType, and reports the total rental
// cost, the bandwidth added (outgoing pairs plus one incoming stream per
// VM), and the VM count. It returns ok=false when no fleet type can host a
// pair.
func freshPlan(f pricing.Fleet, m pricing.Model, rb, n int64) (rental pricing.MicroUSD, bw int64, count int, ok bool) {
	for n > 0 {
		ti := pickDeployType(f, rb, n)
		if ti < 0 {
			return 0, 0, 0, false
		}
		k := f.Capacity(ti)/rb - 1
		if k > n {
			k = n
		}
		rental += m.InstanceVMCost(f.Type(ti), 1)
		bw += rb * (k + 1)
		count++
		n -= k
	}
	return rental, bw, count, true
}

// errTopicTooLarge reports a topic whose single pair (one incoming plus
// one outgoing stream of rb bytes/hour) exceeds the largest VM.
func errTopicTooLarge(t workload.TopicID, rb, maxCap int64) error {
	return fmt.Errorf("%w: topic %d needs %d bytes/h for one pair, the largest VM carries %d",
		ErrInfeasible, t, 2*rb, maxCap)
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// PackSelection runs Stage 2 alone on an existing selection: the
// configured packer on the configured fleet, including the heterogeneous
// portfolio (mixed pack plus every single-type restriction, cheapest
// wins) that SolveContext runs after Stage 1. It is the public entry
// point for benchmarks and tools that manage their own selections.
func PackSelection(ctx context.Context, sel *Selection, cfg Config) (*Allocation, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return runStage2(ctx, sel, cfg)
}

// portfolioRun packs one portfolio member: j == 0 is the primary
// mixed-fleet pack, j > 0 the restriction to the fleet's (j−1)-th type.
// The restrictions run silently — the stage's observer events come once,
// from the primary pack — so both the config and the ambient context
// observer are stripped.
func portfolioRun(ctx context.Context, sel *Selection, cfg Config, fleet pricing.Fleet, j int) (*Allocation, error) {
	if j > 0 {
		cfg.Fleet = fleet.Single(j - 1)
		cfg.Observer = nil
		ctx = ContextWithObserver(ctx, nil)
	}
	return packStage2(ctx, sel, cfg)
}

// runStage2 packs the selection. For a heterogeneous fleet it runs a
// portfolio: the mixed-fleet greedy plus every single-type restriction of
// the fleet, returning the cheapest feasible allocation — so by
// construction the heterogeneous solve never costs more than the best
// homogeneous choice from the same catalog. The members fan out over
// Config.Parallelism workers, the mixed pack first and on the calling
// goroutine, where it alone reports to the observer. The winner is
// reduced in fixed order (mixed first, then the types capacity-ascending,
// strictly-cheaper wins), so the result is identical at every worker
// count. A failed restriction (the type is too small for some topic) is
// skipped; a failure of the mixed pack, or a context cancellation, stops
// the members not yet done.
func runStage2(ctx context.Context, sel *Selection, cfg Config) (*Allocation, error) {
	fleet := cfg.EffectiveFleet()
	if fleet.Len() <= 1 {
		return packStage2(ctx, sel, cfg)
	}
	runs := fleet.Len() + 1
	allocs := make([]*Allocation, runs)
	err := fanOut(ctx, runs, workerCount(cfg.Parallelism), func(ctx context.Context, j int) error {
		a, err := portfolioRun(ctx, sel, cfg, fleet, j)
		if err != nil && j > 0 {
			return nil // the type is too small for some topic; skip it
		}
		allocs[j] = a
		return err
	})
	if err != nil {
		return nil, err
	}
	// With a multi-region topology the members are compared on the full
	// objective, rental + transfer + egress over the rental duration —
	// otherwise a single-region restriction that saves one VM would beat a
	// properly routed mixed pack while silently paying egress on every
	// cross-region pair. Single-region solves add nothing (EgressPerHour
	// is zero there), keeping the paper-faithful comparison intact.
	effCost := func(a *Allocation) (pricing.MicroUSD, error) {
		_, eg, err := EgressPerHour(cfg.Topology, sel.Workload(), a, cfg.MessageBytes)
		return a.Cost(cfg.Model).Add(eg.Mul(cfg.Model.Hours)), err
	}
	best := allocs[0]
	bestCost, err := effCost(best)
	if err != nil {
		return nil, err
	}
	for j := 1; j < runs; j++ {
		if allocs[j] == nil {
			continue
		}
		c, err := effCost(allocs[j])
		if err != nil {
			return nil, err
		}
		if c < bestCost {
			best, bestCost = allocs[j], c
		}
	}
	best.Fleet = fleet
	return best, nil
}
