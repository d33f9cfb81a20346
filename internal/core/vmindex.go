package core

import (
	"math"
	"slices"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// This file implements the package's one VM bookkeeping, the slot table,
// and the queries the Stage-2 packers and the online Rehomer make of it.
// The naive packers (test-only oracles in naive_test.go) scan every
// deployed VM per pair or per topic group — O(P·V), quadratic once V grows
// with P. The table answers the three queries those scans implement in
// O(log V), preserving the naive algorithms' choices exactly:
//
//   - first-fit:  the lowest-index VM with free ≥ need      (freeTree descent)
//   - most-free:  the lowest-index VM of maximum free       (freeTree argmax)
//   - best-fit:   the minimum-free VM with free ≥ need,
//     ties to the lowest index                              (freeOrder ceiling,
//     kept by BFD on top of the table)
//
// Hosting-dependent capacity tests (a pair of topic t needs rb on a VM that
// already hosts t but 2·rb elsewhere, the exact deltaFor test) decompose
// into one query over all VMs at threshold 2·rb plus one scan of t's host
// list at threshold rb. See DESIGN.md §10 for the equivalence argument.

// unusedLeaf marks segment-tree leaves beyond the deployed fleet. It is
// below every reachable free value (the packers never drive free below
// zero, and a re-rate leaves a Rehomer VM at most a bounded amount below
// it, never at the int64 minimum).
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

// hostRef is one entry of a topic's host list: a slot hosting the topic
// and the index of the topic's placement among that slot's placements.
type hostRef struct {
	slot, pi int32
}

// slotTable is the VM state every placement edits: the Stage-2 packers
// fill a fresh one per packing run (vmIndex), and the Rehomer edits one
// over a live allocation. Slot i is alloc.VMs[i]. Every edit keeps three
// things in step with the VMs:
//
//   - tree holds each slot's free capacity;
//   - hosts[t], indexed by dense topic ID, lists the slots hosting topic
//     t in ascending order, each with the index of t's placement on that
//     slot, so finding topic t on slot s is one binary search of t's host
//     list, never a scan of the slot's placements;
//   - every placement has exactly one host entry. The swap-remove of a
//     placement and every slot move fix up the entry they move. Only a
//     packing run's own queries drop entries, ones the run can never use
//     again (see vmIndex); the table's methods never do.
type slotTable struct {
	alloc *Allocation
	tree  freeTree
	hosts [][]hostRef
}

// newSlotTable indexes alloc's VMs, sizing the host lists for numTopics
// topics (they grow past it on demand). The table shares alloc: edits
// mutate its VMs in place, and deploys append to alloc.VMs.
func newSlotTable(alloc *Allocation, numTopics int) slotTable {
	tb := slotTable{alloc: alloc, hosts: make([][]hostRef, numTopics)}
	for i, vm := range alloc.VMs {
		tb.tree.add(vm.FreeBytesPerHour())
		for pi, p := range vm.Placements {
			h, _ := tb.search(p.Topic, int32(i))
			tb.addHost(p.Topic, h, int32(i), pi)
		}
	}
	return tb
}

// free reports slot s's free capacity.
func (tb *slotTable) free(s int32) int64 { return tb.alloc.VMs[s].FreeBytesPerHour() }

// hostsOf returns topic t's host list, nil for a topic never placed.
func (tb *slotTable) hostsOf(t workload.TopicID) []hostRef {
	if int(t) < len(tb.hosts) {
		return tb.hosts[t]
	}
	return nil
}

// search returns the position of slot s in t's host list and whether s
// hosts t; when it does not, the position is where s would go.
func (tb *slotTable) search(t workload.TopicID, s int32) (int, bool) {
	hs := tb.hostsOf(t)
	lo, hi := 0, len(hs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if hs[m].slot < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(hs) && hs[lo].slot == s
}

// addHost inserts slot s, whose placement of t is at index pi, at
// position h of t's host list (search's answer for s).
func (tb *slotTable) addHost(t workload.TopicID, h int, s int32, pi int) {
	if n := int(t) + 1; n > len(tb.hosts) {
		tb.hosts = append(tb.hosts, make([][]hostRef, n-len(tb.hosts))...)
	}
	tb.hosts[t] = slices.Insert(tb.hosts[t], h, hostRef{slot: s, pi: int32(pi)})
}

// deploy appends a fresh VM of the given type and capacity and returns its
// slot.
func (tb *slotTable) deploy(it pricing.InstanceType, capacity int64) int32 {
	s := len(tb.alloc.VMs)
	tb.alloc.VMs = append(tb.alloc.VMs, &VM{ID: s, Instance: it, CapacityBytesPerHour: capacity})
	tb.tree.add(capacity)
	return int32(s)
}

// place assigns subs of topic t (rb bytes/hour each) to slot s, charging
// rb per subscriber (outgoing) plus rb once when t is new to the slot
// (incoming). The subscribers are copied; the caller has checked
// capacity.
func (tb *slotTable) place(s int32, t workload.TopicID, rb int64, subs []workload.SubID) {
	vm := tb.alloc.VMs[s]
	if h, ok := tb.search(t, s); ok {
		p := &vm.Placements[tb.hosts[t][h].pi]
		p.Subs = append(p.Subs, subs...)
	} else {
		tb.addHost(t, h, s, len(vm.Placements))
		vm.Placements = append(vm.Placements, TopicPlacement{Topic: t, Subs: append([]workload.SubID(nil), subs...)})
		vm.InBytesPerHour += rb
	}
	vm.OutBytesPerHour += rb * int64(len(subs))
	tb.tree.set(int(s), vm.FreeBytesPerHour())
}

// removeSub drops subscriber v from slot s's placement of t, dissolving
// the placement (and its ingress) when it empties.
func (tb *slotTable) removeSub(s int32, t workload.TopicID, rb int64, v workload.SubID) {
	vm := tb.alloc.VMs[s]
	h, _ := tb.search(t, s)
	p := &vm.Placements[tb.hosts[t][h].pi]
	k := slices.Index(p.Subs, v)
	p.Subs[k] = p.Subs[len(p.Subs)-1]
	p.Subs = p.Subs[:len(p.Subs)-1]
	vm.OutBytesPerHour -= rb
	if len(p.Subs) == 0 {
		tb.dropPlacement(s, h, t, rb)
	}
	tb.tree.set(int(s), vm.FreeBytesPerHour())
}

// removePlacement detaches slot s's whole placement of t, returning its
// subscribers (ownership transfers to the caller).
func (tb *slotTable) removePlacement(s int32, t workload.TopicID, rb int64) []workload.SubID {
	vm := tb.alloc.VMs[s]
	h, _ := tb.search(t, s)
	p := &vm.Placements[tb.hosts[t][h].pi]
	subs := p.Subs
	p.Subs = nil
	vm.OutBytesPerHour -= rb * int64(len(subs))
	tb.dropPlacement(s, h, t, rb)
	tb.tree.set(int(s), vm.FreeBytesPerHour())
	return subs
}

// dropPlacement swap-removes slot s's placement of t, whose host entry is
// at position h, and delists s from t's host list. Outgoing accounting is
// the caller's; ingress is removed here. The placement moved into the
// hole gets its host entry's index fixed up.
func (tb *slotTable) dropPlacement(s int32, h int, t workload.TopicID, rb int64) {
	vm := tb.alloc.VMs[s]
	pi, last := tb.hosts[t][h].pi, int32(len(vm.Placements)-1)
	if pi != last {
		moved := vm.Placements[last].Topic
		vm.Placements[pi] = vm.Placements[last]
		m, _ := tb.search(moved, s)
		tb.hosts[moved][m].pi = pi
	}
	vm.Placements[last] = TopicPlacement{}
	vm.Placements = vm.Placements[:last]
	vm.InBytesPerHour -= rb
	tb.hosts[t] = slices.Delete(tb.hosts[t], h, h+1)
}

// move relocates the VM in slot from into the empty slot to, re-listing
// its host entries; slot from is left empty for trimTrailingEmpty.
func (tb *slotTable) move(from, to int32) {
	vms := tb.alloc.VMs
	vm := vms[from]
	vm.ID = int(to)
	vms[to] = vm
	tb.tree.set(int(to), vm.FreeBytesPerHour())
	vms[from] = &VM{}
	tb.tree.set(int(from), 0)
	for pi, p := range vm.Placements {
		h, _ := tb.search(p.Topic, from)
		tb.hosts[p.Topic] = slices.Delete(tb.hosts[p.Topic], h, h+1)
		h, _ = tb.search(p.Topic, to)
		tb.addHost(p.Topic, h, to, pi)
	}
}

// trimTrailingEmpty releases empty VMs at the end of the slot table.
func (tb *slotTable) trimTrailingEmpty() {
	n := len(tb.alloc.VMs)
	for n > 0 && len(tb.alloc.VMs[n-1].Placements) == 0 {
		n--
	}
	tb.alloc.VMs = tb.alloc.VMs[:n]
	tb.tree.shrink(n)
}

// freestHost returns the slot hosting t with the most free capacity ≥ need
// (the lowest slot on ties), or -1.
func (tb *slotTable) freestHost(t workload.TopicID, need int64) int32 {
	best, bestFree := int32(-1), int64(-1)
	for _, h := range tb.hostsOf(t) {
		if f := tb.free(h.slot); f >= need && f > bestFree {
			best, bestFree = h.slot, f
		}
	}
	return best
}

// vmIndex is one Stage-2 packing run: a fresh slot table plus the queries
// only a packing run makes. A packing run never removes a placement, so
// free capacities only shrink, and a host that falls below a topic's
// per-pair rate rb (fixed for the whole run) can never take another pair
// of it: firstHost and tightestHost drop such hosts from the topic's list
// as they pass them, which keeps their scans amortized O(1) and O(live
// hosts). Dropping is sound only under that premise, so it lives in these
// queries and not in the table, whose host lists the Rehomer needs exact.
type vmIndex struct {
	slotTable
	// Scratch for cheaperToDistribute's what-if simulation: the touched
	// leaves and their pre-simulation values, unwound after the decision.
	simIdx []int32
	simOld []int64
}

// newVMIndex starts a packing run of sel against fleet; the run's
// allocation is ix.alloc.
func newVMIndex(sel *Selection, fleet pricing.Fleet, msg int64) *vmIndex {
	alloc := &Allocation{Fleet: fleet, MessageBytes: msg}
	return &vmIndex{slotTable: newSlotTable(alloc, sel.w.NumTopics())}
}

// firstHost returns the lowest slot hosting t with free ≥ rb, or -1,
// dropping the hosts before it, which have fallen below rb for good.
func (ix *vmIndex) firstHost(t workload.TopicID, rb int64) int {
	hs := ix.hosts[t]
	for i, h := range hs {
		if ix.free(h.slot) >= rb {
			if i > 0 {
				ix.hosts[t] = hs[:copy(hs, hs[i:])]
			}
			return int(h.slot)
		}
	}
	ix.hosts[t] = hs[:0]
	return -1
}

// tightestHost returns the slot hosting t with the least free capacity
// ≥ rb (the lowest slot on ties) and that capacity, or (-1, 0), dropping
// the hosts that have fallen below rb for good.
func (ix *vmIndex) tightestHost(t workload.TopicID, rb int64) (int32, int64) {
	hs := ix.hosts[t]
	w, best := 0, int32(-1)
	var bestFree int64
	for _, h := range hs {
		f := ix.free(h.slot)
		if f < rb {
			continue
		}
		hs[w] = h
		w++
		if best < 0 || f < bestFree {
			best, bestFree = h.slot, f
		}
	}
	ix.hosts[t] = hs[:w]
	return best, bestFree
}

// firstFit returns the lowest slot that fits one pair of t, or -1. A slot
// fits iff free ≥ 2rb, or it already hosts t and free ≥ rb, so the answer
// is the lower of the tree's first slot at 2rb and t's first host at rb.
func (ix *vmIndex) firstFit(t workload.TopicID, rb int64) int32 {
	a, b := ix.tree.firstAtLeast(2*rb), ix.firstHost(t, rb)
	if a < 0 || (b >= 0 && b < a) {
		return int32(b)
	}
	return int32(a)
}
