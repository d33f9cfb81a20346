package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// ErrInvalidTopology reports a structurally unusable topology: no regions,
// duplicate or empty region names, matrix dimensions that do not match the
// region count, negative RTTs or prices, or non-zero diagonal egress
// (intra-region traffic must be free; that is what pins the single-region
// case to the paper's cost model).
var ErrInvalidTopology = errors.New("core: invalid topology")

// Topology is an immutable multi-region network model, the one Stage 2
// routes pairs across: named regions, an inter-region round-trip-time
// matrix in milliseconds, and a per-GB egress price matrix. Under a
// multi-region Config.Topology Stage 1's GSP prefers co-located pairings,
// Stage 2 routes every pair to the cheapest SLO-feasible region before the
// paper's packing rule runs per region, and the egress bill prices the
// cross-region flows. With one region (or a nil topology) all of that
// degenerates to the paper's setting: the solve is GSP/CBP verbatim,
// egress is zero, and every SLO is trivially met (DESIGN.md §14).
//
// Region indices are dense [0, NumRegions()); index 0 is the home region,
// where region-agnostic workloads and untagged instance types live.
// Construct with NewTopology (or SyntheticTopology); the zero value is not
// useful.
type Topology struct {
	regions []string
	index   map[string]int
	rtt     [][]int64            // milliseconds, rtt[from][to]
	egress  [][]pricing.MicroUSD // per decimal GB, egress[from][to]
}

// NewTopology builds and validates a topology from a region list, an RTT
// matrix (milliseconds), and an egress price matrix (per decimal GB). Both
// matrices must be n×n for n regions; RTTs and prices must be
// non-negative and the egress diagonal must be zero. The slices are
// copied; callers may reuse them.
func NewTopology(regions []string, rttMillis [][]int64, egressPerGB [][]pricing.MicroUSD) (*Topology, error) {
	n := len(regions)
	if n == 0 {
		return nil, fmt.Errorf("%w: no regions", ErrInvalidTopology)
	}
	index := make(map[string]int, n)
	for i, name := range regions {
		if name == "" {
			return nil, fmt.Errorf("%w: region %d has an empty name", ErrInvalidTopology, i)
		}
		if _, dup := index[name]; dup {
			return nil, fmt.Errorf("%w: duplicate region name %q", ErrInvalidTopology, name)
		}
		index[name] = i
	}
	if len(rttMillis) != n {
		return nil, fmt.Errorf("%w: RTT matrix has %d rows for %d regions", ErrInvalidTopology, len(rttMillis), n)
	}
	if len(egressPerGB) != n {
		return nil, fmt.Errorf("%w: egress matrix has %d rows for %d regions", ErrInvalidTopology, len(egressPerGB), n)
	}
	t := &Topology{
		regions: append([]string(nil), regions...),
		index:   index,
		rtt:     make([][]int64, n),
		egress:  make([][]pricing.MicroUSD, n),
	}
	for i := 0; i < n; i++ {
		if len(rttMillis[i]) != n {
			return nil, fmt.Errorf("%w: RTT row %d has %d columns for %d regions", ErrInvalidTopology, i, len(rttMillis[i]), n)
		}
		if len(egressPerGB[i]) != n {
			return nil, fmt.Errorf("%w: egress row %d has %d columns for %d regions", ErrInvalidTopology, i, len(egressPerGB[i]), n)
		}
		t.rtt[i] = append([]int64(nil), rttMillis[i]...)
		t.egress[i] = append([]pricing.MicroUSD(nil), egressPerGB[i]...)
		for j := 0; j < n; j++ {
			if t.rtt[i][j] < 0 {
				return nil, fmt.Errorf("%w: negative RTT %d→%d", ErrInvalidTopology, i, j)
			}
			if t.egress[i][j] < 0 {
				return nil, fmt.Errorf("%w: negative egress price %d→%d", ErrInvalidTopology, i, j)
			}
			if i == j && t.egress[i][j] != 0 {
				return nil, fmt.Errorf("%w: region %q has non-zero intra-region egress price", ErrInvalidTopology, regions[i])
			}
		}
	}
	return t, nil
}

// NumRegions reports the number of regions (≥ 1).
func (t *Topology) NumRegions() int { return len(t.regions) }

// RegionName reports the name of region i.
func (t *Topology) RegionName(i int) string { return t.regions[i] }

// RegionIndex reports the index of the named region; the empty name is the
// home region 0, and an unknown name is -1.
func (t *Topology) RegionIndex(name string) int {
	if name == "" {
		return 0
	}
	if i, ok := t.index[name]; ok {
		return i
	}
	return -1
}

// RTTMillis reports the modeled round-trip time between two regions in
// milliseconds.
func (t *Topology) RTTMillis(from, to int) int64 { return t.rtt[from][to] }

// EgressPerGB reports the price of moving one decimal GB from region `from`
// to region `to`; the diagonal is zero.
func (t *Topology) EgressPerGB(from, to int) pricing.MicroUSD { return t.egress[from][to] }

// Regions returns a copy of the region name list.
func (t *Topology) Regions() []string { return append([]string(nil), t.regions...) }

// SyntheticTopology returns a deterministic n-region topology for
// experiments and tests: regions named "r0"…"r<n-1>", intra-region RTT 0,
// inter-region RTT 30 + 15·|i−j| ms (a rough geographic line), and a flat
// $0.02/GB egress price between distinct regions.
func SyntheticTopology(n int) *Topology {
	regions := make([]string, n)
	rtt := make([][]int64, n)
	egress := make([][]pricing.MicroUSD, n)
	for i := 0; i < n; i++ {
		regions[i] = fmt.Sprintf("r%d", i)
		rtt[i] = make([]int64, n)
		egress[i] = make([]pricing.MicroUSD, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := int64(i - j)
			if d < 0 {
				d = -d
			}
			rtt[i][j] = 30 + 15*d
			egress[i][j] = 20_000 // $0.02/GB
		}
	}
	t, err := NewTopology(regions, rtt, egress)
	if err != nil {
		panic(err) // the synthetic construction is always valid
	}
	return t
}

// RegionalFleet replicates a base fleet into every region of the topology:
// each base type yields one copy per region named "<base>@<region>" with
// the region tag set and the base type's effective capacity preserved. A
// single-region topology returns the base fleet unchanged, so degenerate
// configurations keep their exact instance names (and byte-identical
// solves). Base types that already carry a region tag are rejected.
func RegionalFleet(base pricing.Fleet, t *Topology) (pricing.Fleet, error) {
	if base.IsZero() {
		return pricing.Fleet{}, fmt.Errorf("core: regional fleet needs a non-empty base fleet")
	}
	if t == nil || t.NumRegions() <= 1 {
		return base, nil
	}
	n := t.NumRegions()
	types := make([]pricing.InstanceType, 0, base.Len()*n)
	caps := make([]int64, 0, base.Len()*n)
	for i := 0; i < base.Len(); i++ {
		bt := base.Type(i)
		if bt.Region != "" {
			return pricing.Fleet{}, fmt.Errorf("core: base type %q already has region %q", bt.Name, bt.Region)
		}
		for r := 0; r < n; r++ {
			rt := bt
			rt.Name = bt.Name + "@" + t.RegionName(r)
			rt.Region = t.RegionName(r)
			types = append(types, rt)
			caps = append(caps, base.Capacity(i))
		}
	}
	return pricing.NewFleetWithCapacities(types, caps)
}

// RegionOfInstance resolves the region index an instance type deploys into:
// its Region tag looked up in the topology, with the empty tag mapping to
// the home region 0. A nil topology is region 0. A tag the topology does
// not name also reads as 0 here, for display; every solve, bound, verify
// and index build (Config's fleet) and the egress and latency evaluators
// (an allocation's VMs) refuse such a type first, through
// checkInstanceRegion.
func RegionOfInstance(topo *Topology, it pricing.InstanceType) int {
	if topo == nil || it.Region == "" {
		return 0
	}
	if i := topo.RegionIndex(it.Region); i >= 0 {
		return i
	}
	return 0
}

// checkInstanceRegion rejects an instance type tagged with a region a
// multi-region topology does not name, naming the type and the tag. An
// untagged type is region 0, and under no topology or a single region the
// tags are not read.
func checkInstanceRegion(topo *Topology, it pricing.InstanceType) error {
	if topo == nil || topo.NumRegions() <= 1 || it.Region == "" || topo.RegionIndex(it.Region) >= 0 {
		return nil
	}
	return fmt.Errorf("core: instance type %q is in region %q, which the topology does not name", it.Name, it.Region)
}

// checkRegions rejects a workload tagged with a region a multi-region
// topology does not have, naming the first such topic, else subscriber:
// routing, the egress bill and the latency model index the topology's
// matrices with the tags. Under no topology or a single region the tags
// are not read.
func checkRegions(w *workload.Workload, topo *Topology) error {
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
func PairRTTMillis(t *Topology, pubRegion, brokerRegion, subRegion int) int64 {
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
// topology does not have is an error, the one SolveContext reports, and so
// is a VM whose instance type names a region the topology lacks.
func EgressPerHour(topo *Topology, w *workload.Workload, alloc *Allocation, messageBytes int64) (bytes int64, cost pricing.MicroUSD, err error) {
	if topo == nil || topo.NumRegions() <= 1 || alloc == nil || w == nil {
		return 0, 0, nil
	}
	if err := checkRegions(w, topo); err != nil {
		return 0, 0, err
	}
	n := topo.NumRegions()
	vols := make([]int64, n*n) // bytes/hour per directed (from, to) pair
	for _, vm := range alloc.VMs {
		if err := checkInstanceRegion(topo, vm.Instance); err != nil {
			return 0, 0, err
		}
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
	// egress matrix (EgressPerHour).
	EgressBytesPerHour int64
	EgressCostPerHour  pricing.MicroUSD
}

// EvalLatency walks every placement of the allocation and reports the
// modeled per-pair RTT distribution, SLO violations against sloMillis
// (0 disables the check), and the egress bill. A nil topology or a single-
// region topology yields the degenerate all-zero report with only Pairs
// filled in. A workload tagged with a region the topology does not have,
// or a VM whose type names one, is an error (EgressPerHour's).
func EvalLatency(t *Topology, w *workload.Workload, alloc *Allocation, messageBytes, sloMillis int64) (LatencyReport, error) {
	var rep LatencyReport
	if alloc == nil {
		return rep, nil
	}
	// Pricing the egress first checks the tags the walk below reads.
	var err error
	if rep.EgressBytesPerHour, rep.EgressCostPerHour, err = EgressPerHour(t, w, alloc, messageBytes); err != nil {
		return LatencyReport{}, err
	}
	degenerate := t == nil || t.NumRegions() <= 1
	var samples []int64
	for _, vm := range alloc.VMs {
		br := RegionOfInstance(t, vm.Instance)
		for _, p := range vm.Placements {
			if degenerate {
				rep.Pairs += int64(len(p.Subs))
				continue
			}
			pr := w.TopicRegion(p.Topic)
			for _, v := range p.Subs {
				rtt := PairRTTMillis(t, pr, br, w.SubscriberRegion(v))
				samples = append(samples, rtt)
				if sloMillis > 0 && rtt > sloMillis {
					rep.Violations++
				}
			}
		}
	}
	if degenerate {
		return rep, nil
	}
	rep.Pairs = int64(len(samples))
	if len(samples) > 0 {
		slices.Sort(samples)
		rep.P50Millis = percentile(samples, 50)
		rep.P99Millis = percentile(samples, 99)
		rep.MaxMillis = samples[len(samples)-1]
	}
	return rep, nil
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
