// Package topo makes region a first-class placement dimension: a Topology
// describes the regions a deployment may span, the inter-region round-trip
// times a delivery path accumulates, and the per-GB egress prices cross-
// region traffic is billed at. Core reads a multi-region topology from
// core.Config: Stage 1's GSP prefers co-located pairings, and Stage 2
// routes every pair to the cheapest SLO-feasible region before the
// paper's packing rule runs per region. On top of the model the package
// provides regional fleets and a latency evaluator the experiments harness
// uses to report cost-vs-latency Pareto frontiers.
//
// With one region the whole package degenerates to the paper's setting:
// the solve is GSP/CBP verbatim, egress is zero, and every SLO is
// trivially met. That equivalence is tested byte-for-byte (see DESIGN.md
// §14).
package topo

import (
	"errors"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/pricing"
)

// ErrInvalidTopology reports a structurally unusable topology: no regions,
// duplicate or empty region names, matrix dimensions that do not match the
// region count, negative RTTs or prices, or non-zero diagonal egress
// (intra-region traffic must be free; that is what pins the single-region
// case to the paper's cost model).
var ErrInvalidTopology = errors.New("topo: invalid topology")

// Topology is an immutable multi-region network model: named regions, an
// RTT matrix in milliseconds, and a per-GB egress price matrix. Region 0 is
// the home region, where region-agnostic workloads and untagged instance
// types live. Construct with New (or SyntheticTopology); the zero value is
// not useful. Topology implements core.Topology.
type Topology struct {
	regions []string
	index   map[string]int
	rtt     [][]int64            // milliseconds, rtt[from][to]
	egress  [][]pricing.MicroUSD // per decimal GB, egress[from][to]
}

// New builds and validates a topology from a region list, an RTT matrix
// (milliseconds), and an egress price matrix (per decimal GB). Both
// matrices must be n×n for n regions; RTTs and prices must be
// non-negative and the egress diagonal must be zero. The slices are
// copied; callers may reuse them.
func New(regions []string, rttMillis [][]int64, egressPerGB [][]pricing.MicroUSD) (*Topology, error) {
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

// NumRegions reports the number of regions.
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
// to region `to`.
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
	t, err := New(regions, rtt, egress)
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
		return pricing.Fleet{}, fmt.Errorf("topo: regional fleet needs a non-empty base fleet")
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
			return pricing.Fleet{}, fmt.Errorf("topo: base type %q already has region %q", bt.Name, bt.Region)
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
