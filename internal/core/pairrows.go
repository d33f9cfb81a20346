package core

import (
	"slices"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// HostedTopic is one entry of a subscriber's pair row: a topic the
// subscriber receives and the slot (the VM's index in the allocation)
// that places the pair.
type HostedTopic struct {
	Topic workload.TopicID
	Slot  int32
}

// PairRows is an allocation's placed pairs grouped by subscriber: which
// topics subscriber v receives, and from which VM. Row v lists v's
// entries by topic ascending; a pair placed on several VMs is listed once
// per VM, lowest slot first, and a subscriber listed twice in one
// placement is listed twice. Build it with Allocation.PairRows.
type PairRows struct {
	off     []int64 // row v is entries[off[v]:off[v+1]]
	entries []HostedTopic
}

// PairRows groups the allocation's placed pairs by subscriber (see the
// PairRows type) in counting passes with no per-row sort: placements are
// bucketed by topic, VMs in slot order, and their pairs filled into the
// rows in that order. Placed topics must lie in [0, numT) and subscribers
// in [0, numV), as CheckPlacements ensures; a nil allocation places
// nothing.
func (a *Allocation) PairRows(numT, numV int) *PairRows {
	var vms []*VM
	if a != nil {
		vms = a.VMs
	}
	off, byTopic := make([]int64, numV+1), make([]int32, numT+1)
	for _, vm := range vms {
		for _, p := range vm.Placements {
			byTopic[p.Topic+1]++
			for _, v := range p.Subs {
				off[v+1]++
			}
		}
	}
	for t := range numT {
		byTopic[t+1] += byTopic[t]
	}
	for v := range numV {
		off[v+1] += off[v]
	}
	type placed struct {
		e    HostedTopic
		subs []workload.SubID
	}
	order := make([]placed, byTopic[numT])
	for i, vm := range vms {
		for _, p := range vm.Placements {
			order[byTopic[p.Topic]] = placed{HostedTopic{p.Topic, int32(i)}, p.Subs}
			byTopic[p.Topic]++
		}
	}
	// One entry array, not a topic and a slot array: the fill scatters
	// across the rows, and one cache line per pair instead of two is most
	// of its cost.
	entries := make([]HostedTopic, off[numV])
	next := slices.Clone(off[:numV])
	for _, p := range order {
		for _, v := range p.subs {
			k := next[v]
			entries[k] = p.e
			next[v] = k + 1
		}
	}
	return &PairRows{off: off, entries: entries}
}

// Row returns subscriber v's entries, aliasing the rows; v must be below
// the numV the rows were built for.
func (r *PairRows) Row(v workload.SubID) []HostedTopic {
	return r.entries[r.off[v]:r.off[v+1]]
}

// PlacedSelection is the selection an allocation serves: every placed
// (topic, subscriber) pair once, however many VMs place it. The
// allocation must place only topics and subscribers of w.
func PlacedSelection(w *workload.Workload, alloc *Allocation) *Selection {
	numV := w.NumSubscribers()
	r := alloc.PairRows(w.NumTopics(), numV)
	// Each row is sorted, so a repeat follows its first listing. The row
	// offsets become the selection's, rewritten once each row is read.
	subTopics := make([]workload.TopicID, 0, len(r.entries))
	for v := range numV {
		row := r.Row(workload.SubID(v))
		r.off[v] = int64(len(subTopics))
		for i, e := range row {
			if i == 0 || e.Topic != row[i-1].Topic {
				subTopics = append(subTopics, e.Topic)
			}
		}
	}
	r.off[numV] = int64(len(subTopics))
	return &Selection{w: w, subOff: r.off, subTopics: subTopics}
}
