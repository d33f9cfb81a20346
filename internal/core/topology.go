package core

import (
	"fmt"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Topology abstracts the multi-region network Stage 2 routes pairs across:
// a fixed region list, an inter-region round-trip-time matrix, and a per-GB
// egress price matrix. The concrete implementation
// lives in internal/topo; core depends only on this interface so the paper-
// faithful solver stays topology-free and the elastic controller can bill
// egress without importing the topo package.
//
// Region indices are dense [0, NumRegions()); index 0 is the home region,
// where region-agnostic workloads and untagged instance types live.
type Topology interface {
	// NumRegions reports the number of regions (≥ 1).
	NumRegions() int
	// RegionName reports the name of region i.
	RegionName(i int) string
	// RegionIndex reports the index of the named region, or -1 when the
	// name is unknown. The empty name is the home region, index 0.
	RegionIndex(name string) int
	// RTTMillis reports the modeled round-trip time between two regions in
	// milliseconds. The diagonal is the intra-region RTT (typically ~0).
	RTTMillis(from, to int) int64
	// EgressPerGB reports the price of moving one decimal GB from region
	// `from` to region `to`. The diagonal must be zero: intra-region
	// traffic is free, which is what keeps the single-region degenerate
	// case cost-identical to the paper's model.
	EgressPerGB(from, to int) pricing.MicroUSD
}

// RegionOfInstance resolves the region index an instance type deploys into:
// its Region tag looked up in the topology, with the empty tag (and any
// unknown name) mapping to the home region 0. A nil topology is region 0.
func RegionOfInstance(topo Topology, it pricing.InstanceType) int {
	if topo == nil || it.Region == "" {
		return 0
	}
	if i := topo.RegionIndex(it.Region); i >= 0 {
		return i
	}
	return 0
}

// checkRegions rejects a workload tagged with a region a multi-region
// topology does not have, naming the first such topic, else subscriber:
// routing, the egress bill and the latency model index the topology's
// matrices with the tags. Under no topology or a single region the tags
// are not read.
func checkRegions(w *workload.Workload, topo Topology) error {
	if topo == nil || topo.NumRegions() <= 1 {
		return nil
	}
	n := int32(topo.NumRegions())
	for t, r := range w.TopicRegions() {
		if r >= n {
			return fmt.Errorf("core: topic %q is tagged with region %d, beyond the topology's %d regions", w.TopicName(workload.TopicID(t)), r, n)
		}
	}
	for v, r := range w.SubscriberRegions() {
		if r >= n {
			return fmt.Errorf("core: subscriber %q is tagged with region %d, beyond the topology's %d regions", w.SubscriberName(workload.SubID(v)), r, n)
		}
	}
	return nil
}

// PairRTTMillis reports the modeled delivery RTT of one placement: the
// publisher's region to the broker's region plus the broker's region to the
// subscriber's region.
func PairRTTMillis(t Topology, pubRegion, brokerRegion, subRegion int) int64 {
	return t.RTTMillis(pubRegion, brokerRegion) + t.RTTMillis(brokerRegion, subRegion)
}

// EgressPerHour totals the cross-region transfer an allocation sustains in
// one hour under the topology and prices it with the egress matrix. Two
// flows cross region boundaries: each placed topic's publication stream
// (publisher region → broker region, once per VM hosting the topic) and
// each placed pair's notification stream (broker region → subscriber
// region). Intra-region flows are free. Bytes are accumulated per directed
// region pair and priced exactly with pricing.BandwidthCost, so the result
// is deterministic and saturating like every other money computation.
//
// A nil topology, a single-region topology, or a nil allocation yields
// (0, 0) — the paper's degenerate case. A workload tagged with a region the
// topology does not have is an error, the one SolveContext reports.
func EgressPerHour(topo Topology, w *workload.Workload, alloc *Allocation, messageBytes int64) (bytes int64, cost pricing.MicroUSD, err error) {
	if topo == nil || topo.NumRegions() <= 1 || alloc == nil || w == nil {
		return 0, 0, nil
	}
	if err := checkRegions(w, topo); err != nil {
		return 0, 0, err
	}
	n := topo.NumRegions()
	vols := make([]int64, n*n) // bytes/hour per directed (from, to) pair
	for _, vm := range alloc.VMs {
		br := RegionOfInstance(topo, vm.Instance)
		for _, p := range vm.Placements {
			rb := w.Rate(p.Topic) * messageBytes
			if pr := w.TopicRegion(p.Topic); pr != br {
				vols[pr*n+br] += rb
			}
			for _, v := range p.Subs {
				if sr := w.SubscriberRegion(v); sr != br {
					vols[br*n+sr] += rb
				}
			}
		}
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			vol := vols[from*n+to]
			if vol == 0 || from == to {
				continue
			}
			bytes += vol
			cost = cost.Add(pricing.BandwidthCost(topo.EgressPerGB(from, to), vol))
		}
	}
	return bytes, cost, nil
}
