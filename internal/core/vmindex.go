package core

import (
	"math"
	"slices"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// This file implements the indexed VM state behind the stage-2 packers.
// The naive packers (test-only oracles in naive_test.go) scan
// every deployed VM per pair or per topic group — O(P·V), quadratic once V
// grows with P. The index answers the three queries those scans implement
// in O(log V) (plus amortized-O(1) host-list maintenance), preserving the
// naive algorithms' choices exactly:
//
//   - first-fit:  the lowest-index VM with free ≥ need      (freeTree descent)
//   - most-free:  the lowest-index VM of maximum free       (freeTree argmax)
//   - best-fit:   the minimum-free VM with free ≥ need,
//     ties to the lowest index                              (freeOrder ceiling)
//
// Hosting-dependent capacity tests (a pair of topic t needs rb on a VM that
// already hosts t but 2·rb elsewhere, the exact deltaFor test) decompose
// into one index query over all VMs at threshold 2·rb plus one scan of the
// per-topic host list at threshold rb; because rb is fixed per topic for a
// whole packing run and free capacities only shrink, hosts that fall below
// rb are pruned permanently, making the host scans amortized O(1) for
// first-fit and O(live hosts) otherwise. See DESIGN.md §10 for the
// equivalence argument.

// unusedLeaf marks segment-tree leaves beyond the deployed fleet. It is
// below every reachable free value (lenient first-fit can drive free a
// bounded amount below zero, never to the int64 minimum).
const unusedLeaf = math.MinInt64

// freeTree is a positional segment tree over VM deployment indices storing
// each VM's free capacity, with subtree maxima in the internal nodes.
type freeTree struct {
	// tree[leafCap+i] is VM i's free capacity; tree[k] = max(tree[2k],
	// tree[2k+1]). tree has 2·leafCap entries, leafCap a power of two.
	tree    []int64
	leafCap int
	n       int // leaves in use (deployed VMs)
}

// add appends a VM with the given free capacity, growing the tree
// (amortized O(1), worst case O(V) on a doubling rebuild).
func (ft *freeTree) add(free int64) {
	if ft.n == ft.leafCap {
		ft.grow()
	}
	ft.set(ft.n, free)
	ft.n++
}

func (ft *freeTree) grow() {
	newCap := ft.leafCap * 2
	if newCap == 0 {
		newCap = 2
	}
	tree := make([]int64, 2*newCap)
	for i := newCap; i < 2*newCap; i++ {
		tree[i] = unusedLeaf
	}
	for i := 0; i < ft.n; i++ {
		tree[newCap+i] = ft.tree[ft.leafCap+i]
	}
	for k := newCap - 1; k >= 1; k-- {
		tree[k] = max(tree[2*k], tree[2*k+1])
	}
	ft.tree, ft.leafCap = tree, newCap
}

// set updates VM i's free capacity in O(log V).
func (ft *freeTree) set(i int, free int64) {
	k := ft.leafCap + i
	ft.tree[k] = free
	for k >>= 1; k >= 1; k >>= 1 {
		m := max(ft.tree[2*k], ft.tree[2*k+1])
		if ft.tree[k] == m {
			break
		}
		ft.tree[k] = m
	}
}

// firstAtLeast returns the lowest VM index with free ≥ need, or -1.
func (ft *freeTree) firstAtLeast(need int64) int {
	if ft.n == 0 || ft.tree[1] < need {
		return -1
	}
	k := 1
	for k < ft.leafCap {
		if ft.tree[2*k] >= need {
			k = 2 * k
		} else {
			k = 2*k + 1
		}
	}
	return k - ft.leafCap
}

// shrink truncates the tree to its first n leaves, marking the dropped
// tail unused. It is the inverse of trailing add calls and lets the
// incremental layer release empty VMs at the end of the slot table.
func (ft *freeTree) shrink(n int) {
	for i := ft.n - 1; i >= n; i-- {
		ft.set(i, unusedLeaf)
	}
	ft.n = n
}

// maxFree returns the maximum free capacity and the lowest VM index
// achieving it, or (unusedLeaf, -1) for an empty fleet.
func (ft *freeTree) maxFree() (int64, int) {
	if ft.n == 0 {
		return unusedLeaf, -1
	}
	m := ft.tree[1]
	k := 1
	for k < ft.leafCap {
		if ft.tree[2*k] == m {
			k = 2 * k
		} else {
			k = 2*k + 1
		}
	}
	return m, k - ft.leafCap
}

// freeOrder is a treap keyed by (free, vmIndex): an ordered index over the
// fleet's free capacities answering best-fit's "tightest VM with free ≥
// need, ties to the lowest index" in O(log V) expected. Node i is VM i; a
// VM's key changes by remove+insert. Priorities are a deterministic hash
// of the VM index, so runs are reproducible.
type freeOrder struct {
	nodes []orderNode
	root  int32
}

type orderNode struct {
	free        int64
	prio        uint64
	left, right int32
}

func newFreeOrder() *freeOrder { return &freeOrder{root: -1} }

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// deterministic bit mixer for treap priorities.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// less orders nodes by (free, index) lexicographically.
func (fo *freeOrder) less(i, j int32) bool {
	if fo.nodes[i].free != fo.nodes[j].free {
		return fo.nodes[i].free < fo.nodes[j].free
	}
	return i < j
}

func (fo *freeOrder) merge(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if fo.nodes[a].prio >= fo.nodes[b].prio {
		fo.nodes[a].right = fo.merge(fo.nodes[a].right, b)
		return a
	}
	fo.nodes[b].left = fo.merge(a, fo.nodes[b].left)
	return b
}

// split partitions t into nodes < pivot and nodes ≥ pivot (by key order).
func (fo *freeOrder) split(t, pivot int32) (lo, hi int32) {
	if t < 0 {
		return -1, -1
	}
	if fo.less(t, pivot) {
		l, h := fo.split(fo.nodes[t].right, pivot)
		fo.nodes[t].right = l
		return t, h
	}
	l, h := fo.split(fo.nodes[t].left, pivot)
	fo.nodes[t].left = h
	return l, t
}

// add appends VM v (v == len(nodes)) with the given free capacity.
func (fo *freeOrder) add(v int32, free int64) {
	fo.nodes = append(fo.nodes, orderNode{
		free: free,
		prio: splitmix64(uint64(v)),
		left: -1, right: -1,
	})
	lo, hi := fo.split(fo.root, v)
	fo.root = fo.merge(fo.merge(lo, v), hi)
}

// update changes VM v's free capacity (remove + reinsert).
func (fo *freeOrder) update(v int32, free int64) {
	fo.root = fo.remove(fo.root, v)
	fo.nodes[v].free = free
	fo.nodes[v].left, fo.nodes[v].right = -1, -1
	lo, hi := fo.split(fo.root, v)
	fo.root = fo.merge(fo.merge(lo, v), hi)
}

func (fo *freeOrder) remove(t, v int32) int32 {
	if t < 0 {
		return -1
	}
	if t == v {
		return fo.merge(fo.nodes[t].left, fo.nodes[t].right)
	}
	if fo.less(v, t) {
		fo.nodes[t].left = fo.remove(fo.nodes[t].left, v)
	} else {
		fo.nodes[t].right = fo.remove(fo.nodes[t].right, v)
	}
	return t
}

// ceiling returns the VM with the smallest (free, index) key among those
// with free ≥ need, or -1: best-fit's tightest eligible VM with the naive
// scan's lowest-index tie-break.
func (fo *freeOrder) ceiling(need int64) int32 {
	best := int32(-1)
	t := fo.root
	for t >= 0 {
		if fo.nodes[t].free >= need {
			best = t
			t = fo.nodes[t].left
		} else {
			t = fo.nodes[t].right
		}
	}
	return best
}

// vmIndex bundles the deployed fleet with the index structures the packers
// query, maintaining only what its packer actually reads: the segment
// tree answers first-fit/most-free (FFBP, CBP), the treap answers
// best-fit ceilings (BFD), and the host lists back the rb-branch of the
// exact capacity test (skipped by lenient FFBP, which never asks about
// hosting).
type vmIndex struct {
	vms   []*vmState
	tree  *freeTree  // nil when only best-fit queries are made (BFD)
	order *freeOrder // nil unless best-fit queries are required
	// hosts[t] lists the VM indices hosting topic t, ascending; nil when
	// hosting queries are never made (lenient first-fit). Entries whose
	// free capacity has dropped below the topic's per-pair rate are
	// pruned lazily during scans (free only shrinks, so they can never
	// host another pair of t).
	hosts map[workload.TopicID][]int32

	// Scratch for cheaperToDistribute's what-if simulation: the touched
	// leaves and their pre-simulation values, unwound after the decision.
	simIdx []int32
	simOld []int64
}

// newVMIndex builds the index for one packing run: ordered selects the
// treap (best-fit) over the segment tree (first-fit/most-free), hosted
// enables the per-topic host lists.
func newVMIndex(ordered, hosted bool) *vmIndex {
	ix := &vmIndex{}
	if ordered {
		ix.order = newFreeOrder()
	} else {
		ix.tree = &freeTree{}
	}
	if hosted {
		ix.hosts = make(map[workload.TopicID][]int32)
	}
	return ix
}

// deploy appends a fresh VM of the given type and registers it with the
// indices.
func (ix *vmIndex) deploy(it pricing.InstanceType, capacity int64) *vmState {
	b := newVMState(len(ix.vms), it, capacity)
	ix.vms = append(ix.vms, b)
	if ix.tree != nil {
		ix.tree.add(b.free)
	}
	if ix.order != nil {
		ix.order.add(int32(b.vm.ID), b.free)
	}
	return b
}

// place assigns pairs to b exactly as vmState.place and refreshes the
// indices: the free-capacity structure and, when the topic is new to b,
// the topic's host list.
func (ix *vmIndex) place(b *vmState, t workload.TopicID, rb int64, subs []workload.SubID) {
	newTopic := b.place(t, rb, subs)
	id := int32(b.vm.ID)
	if ix.tree != nil {
		ix.tree.set(b.vm.ID, b.free)
	}
	if ix.order != nil {
		ix.order.update(id, b.free)
	}
	if newTopic && ix.hosts != nil {
		hs := ix.hosts[t]
		if n := len(hs); n == 0 || hs[n-1] < id {
			ix.hosts[t] = append(hs, id)
		} else {
			i, _ := slices.BinarySearch(hs, id)
			ix.hosts[t] = slices.Insert(hs, i, id)
		}
	}
}

// firstFree returns the lowest-index VM with free ≥ need, or -1.
func (ix *vmIndex) firstFree(need int64) int { return ix.tree.firstAtLeast(need) }

// firstHost returns the lowest-index VM hosting t with free ≥ rb, or -1,
// pruning hosts that have fallen below rb for good.
func (ix *vmIndex) firstHost(t workload.TopicID, rb int64) int {
	hs := ix.hosts[t]
	for i, id := range hs {
		if ix.vms[id].free >= rb {
			if i > 0 {
				n := copy(hs, hs[i:])
				ix.hosts[t] = hs[:n]
			}
			return int(id)
		}
	}
	if len(hs) > 0 {
		ix.hosts[t] = hs[:0]
	}
	return -1
}

// scanHosts walks topic t's host list pruning entries below rb for good
// and returns the extreme live host by free capacity — the least free
// when tightest is set (best-fit), the most free otherwise — with ties
// to the lowest index, or (-1, 0) when no host qualifies.
func (ix *vmIndex) scanHosts(t workload.TopicID, rb int64, tightest bool) (int, int64) {
	hs := ix.hosts[t]
	w := 0
	best := -1
	var bestFree int64
	for _, id := range hs {
		f := ix.vms[id].free
		if f < rb {
			continue // below rb for good: prune
		}
		hs[w] = id
		w++
		if best < 0 || (tightest && f < bestFree) || (!tightest && f > bestFree) {
			best, bestFree = int(id), f
		}
	}
	if w != len(hs) {
		ix.hosts[t] = hs[:w]
	}
	return best, bestFree
}

// freestHost returns the VM hosting t with the most free capacity among
// those with free ≥ rb (ties to the lowest index), or -1.
func (ix *vmIndex) freestHost(t workload.TopicID, rb int64) int {
	best, _ := ix.scanHosts(t, rb, false)
	return best
}

// tightestHost returns the VM hosting t with the least free capacity among
// those with free ≥ rb (ties to the lowest index) and that capacity, or
// (-1, 0).
func (ix *vmIndex) tightestHost(t workload.TopicID, rb int64) (int, int64) {
	return ix.scanHosts(t, rb, true)
}

// minIndex combines two first-fit candidates (-1 = none).
func minIndex(a, b int) int {
	if a < 0 {
		return b
	}
	if b < 0 || a < b {
		return a
	}
	return b
}

// finish converts the indexed fleet into the exported allocation.
func (ix *vmIndex) finish(fleet pricing.Fleet, cfg Config) *Allocation {
	return finishAllocation(ix.vms, fleet, cfg)
}
