package topo

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func TestNewValidation(t *testing.T) {
	ok := func(n int) ([]string, [][]int64, [][]pricing.MicroUSD) {
		regions := make([]string, n)
		rtt := make([][]int64, n)
		egress := make([][]pricing.MicroUSD, n)
		for i := range regions {
			regions[i] = fmt.Sprintf("r%d", i)
			rtt[i] = make([]int64, n)
			egress[i] = make([]pricing.MicroUSD, n)
		}
		return regions, rtt, egress
	}

	for _, tc := range []struct {
		name  string
		build func() ([]string, [][]int64, [][]pricing.MicroUSD)
	}{
		{"no regions", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			return nil, nil, nil
		}},
		{"empty region name", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			r[1] = ""
			return r, rtt, eg
		}},
		{"duplicate region name", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			r[1] = r[0]
			return r, rtt, eg
		}},
		{"short RTT matrix", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			return r, rtt[:1], eg
		}},
		{"ragged RTT row", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			rtt[1] = rtt[1][:1]
			return r, rtt, eg
		}},
		{"short egress matrix", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			return r, rtt, eg[:1]
		}},
		{"ragged egress row", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			eg[0] = eg[0][:1]
			return r, rtt, eg
		}},
		{"negative RTT", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			rtt[0][1] = -1
			return r, rtt, eg
		}},
		{"negative egress price", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			eg[1][0] = -1
			return r, rtt, eg
		}},
		{"non-zero diagonal egress", func() ([]string, [][]int64, [][]pricing.MicroUSD) {
			r, rtt, eg := ok(2)
			eg[1][1] = 5
			return r, rtt, eg
		}},
	} {
		regions, rtt, egress := tc.build()
		if _, err := New(regions, rtt, egress); !errors.Is(err, ErrInvalidTopology) {
			t.Errorf("%s: err = %v, want ErrInvalidTopology", tc.name, err)
		}
	}

	regions, rtt, egress := ok(3)
	rtt[0][2], rtt[2][0] = 80, 80
	egress[0][2] = 12_345
	topo, err := New(regions, rtt, egress)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumRegions() != 3 || topo.RegionName(2) != "r2" {
		t.Fatalf("accessors: %d regions, name %q", topo.NumRegions(), topo.RegionName(2))
	}
	if topo.RTTMillis(0, 2) != 80 || topo.EgressPerGB(0, 2) != 12_345 {
		t.Fatalf("matrix accessors: rtt %d, egress %d", topo.RTTMillis(0, 2), topo.EgressPerGB(0, 2))
	}
	if topo.RegionIndex("r1") != 1 || topo.RegionIndex("") != 0 || topo.RegionIndex("nope") != -1 {
		t.Fatal("RegionIndex contract broken")
	}
	// The constructor copies its inputs: mutating the caller's slices must
	// not reach the topology.
	rtt[0][2] = 999
	if topo.RTTMillis(0, 2) != 80 {
		t.Fatal("topology aliases the caller's RTT matrix")
	}
}

func TestSyntheticTopology(t *testing.T) {
	topo := SyntheticTopology(3)
	if got := topo.Regions(); len(got) != 3 || got[0] != "r0" || got[2] != "r2" {
		t.Fatalf("regions = %v", got)
	}
	for i := 0; i < 3; i++ {
		if topo.RTTMillis(i, i) != 0 || topo.EgressPerGB(i, i) != 0 {
			t.Fatalf("diagonal %d not free", i)
		}
	}
	if topo.RTTMillis(0, 1) != 45 || topo.RTTMillis(0, 2) != 60 {
		t.Fatalf("rtt 0→1=%d 0→2=%d, want 45/60", topo.RTTMillis(0, 1), topo.RTTMillis(0, 2))
	}
	if topo.EgressPerGB(1, 2) != 20_000 {
		t.Fatalf("egress 1→2 = %d, want 20000 µ$ ($0.02/GB)", topo.EgressPerGB(1, 2))
	}
}

func TestRegionalFleet(t *testing.T) {
	base, err := pricing.NewFleet(pricing.C3Large, pricing.C3XLarge)
	if err != nil {
		t.Fatal(err)
	}

	// Single-region topologies return the base fleet unchanged — that is
	// what keeps degenerate instance names (and solves) byte-identical.
	same, err := RegionalFleet(base, SyntheticTopology(1))
	if err != nil {
		t.Fatal(err)
	}
	if same.String() != base.String() {
		t.Fatalf("single-region fleet changed: %v vs %v", same, base)
	}

	topo := SyntheticTopology(3)
	regional, err := RegionalFleet(base, topo)
	if err != nil {
		t.Fatal(err)
	}
	if regional.Len() != base.Len()*3 {
		t.Fatalf("regional fleet has %d types, want %d", regional.Len(), base.Len()*3)
	}
	seen := map[string]bool{}
	for i := 0; i < regional.Len(); i++ {
		it := regional.Type(i)
		if !strings.Contains(it.Name, "@") {
			t.Fatalf("type %q missing @region suffix", it.Name)
		}
		if topo.RegionIndex(it.Region) < 0 {
			t.Fatalf("type %q has unknown region %q", it.Name, it.Region)
		}
		if !strings.HasSuffix(it.Name, "@"+it.Region) {
			t.Fatalf("type %q name does not match region %q", it.Name, it.Region)
		}
		seen[it.Name] = true
	}
	if !seen[pricing.C3Large.Name+"@r2"] || !seen[pricing.C3XLarge.Name+"@r0"] {
		t.Fatalf("expected replicated names missing from %v", seen)
	}

	// Already-tagged base types are rejected rather than double-suffixed.
	if _, err := RegionalFleet(regional, topo); err == nil {
		t.Fatal("re-regionalizing an already-tagged fleet succeeded")
	}
	if _, err := RegionalFleet(pricing.Fleet{}, topo); err == nil {
		t.Fatal("empty base fleet succeeded")
	}
}

// taggedWorkload builds a small random workload with a deterministic
// region assignment over n regions.
func taggedWorkload(t *testing.T, n int, seed int64) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 40, Subscribers: 120, MaxFollowings: 5, MaxRate: 200, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err = tracegen.TagRegions(w, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func topoConfig(t *testing.T, tau int64) core.Config {
	t.Helper()
	return core.DefaultConfig(tau, pricing.NewModel(pricing.C3Large))
}

// diffAllocations mirrors the structural comparison the latency experiment
// uses; an empty string means the allocations are identical in every field
// the cost model and plan codec depend on.
func diffAllocations(a, b *core.Allocation) string {
	if (a == nil) != (b == nil) {
		return "one allocation is nil"
	}
	if a == nil {
		return ""
	}
	if len(a.VMs) != len(b.VMs) {
		return fmt.Sprintf("VM count %d vs %d", len(a.VMs), len(b.VMs))
	}
	for i := range a.VMs {
		va, vb := a.VMs[i], b.VMs[i]
		if va.Instance != vb.Instance || va.CapacityBytesPerHour != vb.CapacityBytesPerHour ||
			va.InBytesPerHour != vb.InBytesPerHour || va.OutBytesPerHour != vb.OutBytesPerHour ||
			len(va.Placements) != len(vb.Placements) {
			return fmt.Sprintf("vm %d differs: %+v vs %+v", i, va, vb)
		}
		for j := range va.Placements {
			pa, pb := va.Placements[j], vb.Placements[j]
			if pa.Topic != pb.Topic || len(pa.Subs) != len(pb.Subs) {
				return fmt.Sprintf("vm %d placement %d differs", i, j)
			}
			for k := range pa.Subs {
				if pa.Subs[k] != pb.Subs[k] {
					return fmt.Sprintf("vm %d placement %d sub %d differs", i, j, k)
				}
			}
		}
	}
	return ""
}

// TestDegenerateByteIdentity is the differential contract of the package:
// with one region (or no topology at all), zero egress and no SLO, the
// solve under the topology must produce allocations identical to the
// paper's GSP+CBP in every field, across a randomized workload sweep.
func TestDegenerateByteIdentity(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, tau := range []int64{50, 200} {
			w := taggedWorkload(t, 1, seed)

			paper := core.DefaultConfig(tau, pricing.NewModel(pricing.C3Large))
			want, err := core.Solve(w, paper)
			if err != nil {
				t.Fatalf("seed %d τ=%d: paper solve: %v", seed, tau, err)
			}

			for _, tc := range []struct {
				name string
				topo core.Topology
			}{
				{"nil topology", nil},
				{"single-region topology", SyntheticTopology(1)},
			} {
				cfg := topoConfig(t, tau)
				cfg.Topology = tc.topo
				got, err := core.Solve(w, cfg)
				if err != nil {
					t.Fatalf("seed %d τ=%d %s: topo solve: %v", seed, tau, tc.name, err)
				}
				if d := diffAllocations(got.Allocation, want.Allocation); d != "" {
					t.Fatalf("seed %d τ=%d %s: allocations diverge: %s", seed, tau, tc.name, d)
				}
			}
		}
	}
}

func TestPackTopoMultiRegion(t *testing.T) {
	w := taggedWorkload(t, 3, 7)
	topo := SyntheticTopology(3)
	model := pricing.NewModel(pricing.C3Large)
	fleet, err := RegionalFleet(model.SingleFleet(), topo)
	if err != nil {
		t.Fatal(err)
	}

	cfg := topoConfig(t, 100)
	cfg.Model = model
	cfg.Fleet = fleet
	cfg.Topology = topo
	cfg.LatencySLOMillis = 120
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocation.VMs) == 0 {
		t.Fatal("empty allocation")
	}
	for i, vm := range res.Allocation.VMs {
		if vm.ID != i {
			t.Fatalf("vm %d has ID %d after regional merge", i, vm.ID)
		}
		if topo.RegionIndex(vm.Instance.Region) < 0 {
			t.Fatalf("vm %d deployed on regionless type %q", i, vm.Instance.Name)
		}
	}
	rep, err := EvalLatency(topo, w, res.Allocation, 200, cfg.LatencySLOMillis)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 {
		t.Fatal("latency report saw no pairs")
	}
	if rep.Violations != 0 {
		t.Fatalf("%d SLO violations under a ceiling the packer enforced", rep.Violations)
	}
	if rep.MaxMillis > cfg.LatencySLOMillis {
		t.Fatalf("max modeled RTT %dms exceeds the %dms ceiling", rep.MaxMillis, cfg.LatencySLOMillis)
	}
	if rep.P50Millis > rep.P99Millis || rep.P99Millis > rep.MaxMillis {
		t.Fatalf("percentiles out of order: p50=%d p99=%d max=%d", rep.P50Millis, rep.P99Millis, rep.MaxMillis)
	}
	if rep.EgressBytesPerHour < 0 || rep.EgressCostPerHour < 0 {
		t.Fatal("negative egress accounting")
	}
}

func TestPackTopoInfeasibleSLO(t *testing.T) {
	// Every cross-region delivery path in the synthetic topology models at
	// least 45ms, so a 10ms ceiling with a forced cross-region pair must
	// report infeasibility through core.ErrInfeasible.
	b := workload.NewBuilder().AddTopic("hot", 100)
	b.AddSubscription("far", "hot")
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w, err := base.WithRegions([]int32{0}, []int32{1})
	if err != nil {
		t.Fatal(err)
	}

	topo := SyntheticTopology(3)
	model := pricing.NewModel(pricing.C3Large)
	fleet, err := RegionalFleet(model.SingleFleet(), topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := topoConfig(t, 100)
	cfg.Model = model
	cfg.Fleet = fleet
	cfg.Topology = topo
	cfg.LatencySLOMillis = 10
	if _, err := core.Solve(w, cfg); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want core.ErrInfeasible", err)
	}

	// Loosening the ceiling to the modeled path cost makes it feasible.
	cfg.LatencySLOMillis = 45
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EvalLatency(topo, w, res.Allocation, 200, cfg.LatencySLOMillis)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 || rep.MaxMillis > 45 {
		t.Fatalf("45ms ceiling: violations=%d max=%dms", rep.Violations, rep.MaxMillis)
	}
}

// TestPortfolioEgressAware pins the stage-2 fleet portfolio to the full
// multi-region objective. A single-type restriction confines the pack to
// one region, which often saves a VM of per-region bin fragmentation — on
// rental alone it would beat the mixed pack while silently shipping every
// foreign pair's traffic across regions. With punitive egress prices the
// portfolio must keep the region-spanning mixed pack.
func TestPortfolioEgressAware(t *testing.T) {
	// The mixed pack only saves egress on pairs that are local to a
	// non-home region, so the price must be high enough that that share of
	// a tiny test workload's traffic outweighs a whole VM of rental.
	w := taggedWorkload(t, 2, 11)
	const perGB = pricing.MicroUSD(5_000_000_000) // $5000/GB dwarfs any rental saving
	expensive, err := New(
		[]string{"r0", "r1"},
		[][]int64{{0, 40}, {40, 0}},
		[][]pricing.MicroUSD{{0, perGB}, {perGB, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	model := pricing.NewModel(pricing.C3Large)
	fleet, err := RegionalFleet(model.SingleFleet(), expensive)
	if err != nil {
		t.Fatal(err)
	}
	cfg := topoConfig(t, 100)
	cfg.Model = model
	cfg.Fleet = fleet
	cfg.Topology = expensive
	// No SLO ceiling: only the egress price stops a single-region collapse.
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	regions := make(map[string]bool)
	for _, vm := range res.Allocation.VMs {
		regions[vm.Instance.Region] = true
	}
	if len(regions) < 2 {
		t.Fatalf("portfolio collapsed into %v despite punitive egress pricing", regions)
	}
}
