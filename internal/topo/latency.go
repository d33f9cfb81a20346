package topo

import (
	"slices"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// LatencyReport summarizes the modeled delivery latency and egress bill of
// an allocation under a topology. Every placed pair contributes one sample:
// the publisher→broker RTT plus the broker→subscriber RTT, both read from
// the topology's matrix.
type LatencyReport struct {
	// Pairs is the number of placed topic–subscriber pairs evaluated.
	Pairs int64
	// P50Millis, P99Millis, and MaxMillis are percentiles of the per-pair
	// modeled delivery RTT (nearest-rank on the sorted samples).
	P50Millis int64
	P99Millis int64
	MaxMillis int64
	// Violations counts pairs whose modeled RTT exceeds the SLO ceiling;
	// zero when no ceiling was given.
	Violations int64
	// EgressBytesPerHour and EgressCostPerHour total the cross-region
	// traffic the allocation sustains and its price under the topology's
	// egress matrix (core.EgressPerHour).
	EgressBytesPerHour int64
	EgressCostPerHour  pricing.MicroUSD
}

// EvalLatency walks every placement of the allocation and reports the
// modeled per-pair RTT distribution, SLO violations against sloMillis
// (0 disables the check), and the egress bill. A nil topology or a single-
// region topology yields the degenerate all-zero report with only Pairs
// filled in.
func EvalLatency(t core.Topology, w *workload.Workload, alloc *core.Allocation, messageBytes, sloMillis int64) LatencyReport {
	var rep LatencyReport
	if alloc == nil {
		return rep
	}
	degenerate := t == nil || t.NumRegions() <= 1
	var samples []int64
	for _, vm := range alloc.VMs {
		br := core.RegionOfInstance(t, vm.Instance)
		for _, p := range vm.Placements {
			if degenerate {
				rep.Pairs += int64(len(p.Subs))
				continue
			}
			pr := w.TopicRegion(p.Topic)
			for _, v := range p.Subs {
				rtt := core.PairRTTMillis(t, pr, br, w.SubscriberRegion(v))
				samples = append(samples, rtt)
				if sloMillis > 0 && rtt > sloMillis {
					rep.Violations++
				}
			}
		}
	}
	if degenerate {
		return rep
	}
	rep.Pairs = int64(len(samples))
	if len(samples) > 0 {
		slices.Sort(samples)
		rep.P50Millis = percentile(samples, 50)
		rep.P99Millis = percentile(samples, 99)
		rep.MaxMillis = samples[len(samples)-1]
	}
	rep.EgressBytesPerHour, rep.EgressCostPerHour = core.EgressPerHour(t, w, alloc, messageBytes)
	return rep
}

// percentile is the nearest-rank percentile of an ascending-sorted sample.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
