package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// This file pins the indexed stage-2 packers byte-identical to the naive
// reference implementations (naive_test.go) across randomized workloads,
// fleets, selections, and option sets — the equivalence contract that lets
// the O(log V) engine replace the O(V) scans without touching a single
// allocation decision.

// allocationsEqual reports the first structural difference between two
// allocations, or nil. "Byte-identical" here means: same VM count and
// deployment order, same instance type and capacity per VM, the same
// placements in the same order with the same subscriber order, and the
// same bandwidth accounting.
func allocationsEqual(a, b *Allocation) error {
	if a.NumVMs() != b.NumVMs() {
		return fmt.Errorf("VM count %d != %d", a.NumVMs(), b.NumVMs())
	}
	for i := range a.VMs {
		va, vb := a.VMs[i], b.VMs[i]
		if va.ID != vb.ID {
			return fmt.Errorf("vm %d: ID %d != %d", i, va.ID, vb.ID)
		}
		if va.Instance != vb.Instance {
			return fmt.Errorf("vm %d: instance %+v != %+v", i, va.Instance, vb.Instance)
		}
		if va.CapacityBytesPerHour != vb.CapacityBytesPerHour {
			return fmt.Errorf("vm %d: capacity %d != %d", i, va.CapacityBytesPerHour, vb.CapacityBytesPerHour)
		}
		if va.InBytesPerHour != vb.InBytesPerHour || va.OutBytesPerHour != vb.OutBytesPerHour {
			return fmt.Errorf("vm %d: bw (in=%d,out=%d) != (in=%d,out=%d)",
				i, va.InBytesPerHour, va.OutBytesPerHour, vb.InBytesPerHour, vb.OutBytesPerHour)
		}
		if len(va.Placements) != len(vb.Placements) {
			return fmt.Errorf("vm %d: %d placements != %d", i, len(va.Placements), len(vb.Placements))
		}
		for j := range va.Placements {
			pa, pb := va.Placements[j], vb.Placements[j]
			if pa.Topic != pb.Topic {
				return fmt.Errorf("vm %d placement %d: topic %d != %d", i, j, pa.Topic, pb.Topic)
			}
			if len(pa.Subs) != len(pb.Subs) {
				return fmt.Errorf("vm %d topic %d: %d subs != %d", i, pa.Topic, len(pa.Subs), len(pb.Subs))
			}
			for k := range pa.Subs {
				if pa.Subs[k] != pb.Subs[k] {
					return fmt.Errorf("vm %d topic %d sub %d: %d != %d", i, pa.Topic, k, pa.Subs[k], pb.Subs[k])
				}
			}
		}
	}
	return nil
}

// randomDiffFleet builds a 2–4-type fleet with randomized rates and
// explicit capacities. The largest type always admits the hottest topic
// (2·maxRate at MessageBytes=1); smaller types may not, exercising the
// skip paths of pickFittingType/pickDeployType identically in both engines.
func randomDiffFleet(t *testing.T, rng *rand.Rand, maxRate int64) pricing.Fleet {
	t.Helper()
	n := 2 + rng.Intn(3)
	types := make([]pricing.InstanceType, n)
	caps := make([]int64, n)
	for i := range types {
		types[i] = pricing.InstanceType{
			Name:       fmt.Sprintf("d%d", i),
			HourlyRate: pricing.MicroUSD(1 + rng.Int63n(1_000_000)),
			LinkMbps:   1,
		}
		caps[i] = 1 + rng.Int63n(2*maxRate+2000)
	}
	caps[n-1] = 2*maxRate + 1 + rng.Int63n(2000)
	f, err := pricing.NewFleetWithCapacities(types, caps)
	if err != nil {
		t.Fatalf("NewFleetWithCapacities: %v", err)
	}
	return f
}

// diffModel is testModel with a randomized transfer price, so the Alg. 7
// cost decision flips between distribute and deploy across cases.
func diffModel(rng *rand.Rand, capacity int64) pricing.Model {
	m := testModel(capacity)
	m.PerGB = pricing.MicroUSD(rng.Int63n(5_000_000_000_000)) // $0 – $5M/GB
	return m
}

// TestDifferentialIndexedMatchesNaive runs every packer in both engines
// over > 1000 randomized (workload, fleet, selection, options) cases and
// requires identical outcomes: the same error, or byte-identical
// allocations that also pass VerifyAllocation.
func TestDifferentialIndexedMatchesNaive(t *testing.T) {
	type packer struct {
		name    string
		indexed func(*Selection, Config) (*Allocation, error)
		naive   func(*Selection, Config) (*Allocation, error)
	}
	cases := 0
	compare := func(t *testing.T, seed int64, w *workload.Workload, sel *Selection, cfg Config, p packer) {
		t.Helper()
		cases++
		fast, ferr := p.indexed(sel, cfg)
		slow, nerr := p.naive(sel, cfg)
		if (ferr == nil) != (nerr == nil) || (ferr != nil && !errors.Is(ferr, nerr) && !errors.Is(nerr, ferr)) {
			t.Fatalf("seed %d %s (opts=%v): indexed err %v, naive err %v",
				seed, p.name, cfg.Opts, ferr, nerr)
		}
		if ferr != nil {
			return
		}
		if err := allocationsEqual(fast, slow); err != nil {
			t.Fatalf("seed %d %s (opts=%v): indexed differs from naive: %v",
				seed, p.name, cfg.Opts, err)
		}
		if err := VerifyAllocation(w, sel, fast, cfg); err != nil {
			t.Fatalf("seed %d %s: VerifyAllocation: %v", seed, p.name, err)
		}
	}

	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		w := randomCoreWorkload(rng)
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		tau := 1 + rng.Int63n(400)
		cfg := Config{
			Tau:          tau,
			MessageBytes: 1,
			Model:        diffModel(rng, 2*maxRate+1+rng.Int63n(2000)),
		}
		// Half the cases pack against a random mixed fleet, half against
		// the model's single type.
		if seed%2 == 0 {
			cfg.Fleet = randomDiffFleet(t, rng, maxRate)
		}
		// Alternate the selection source: the greedy stage-1 output and
		// the everything-selected workload.
		var sel *Selection
		if seed%3 == 0 {
			sel = SelectAllPairs(w)
		} else {
			sel = GreedySelectPairs(w, tau)
		}

		// FFBP.
		compare(t, seed, w, sel, cfg, packer{"FFBP", FFBinPacking, FFBinPackingNaive})
		// CBP at every optimization combination.
		for opts := OptFlags(0); opts <= OptAll; opts++ {
			c := cfg
			c.Opts = opts
			compare(t, seed, w, sel, c, packer{"CBP", CustomBinPacking, CustomBinPackingNaive})
		}
		// BFD.
		compare(t, seed, w, sel, cfg, packer{"BFD", BFDBinPacking, BFDBinPackingNaive})
	}
	if cases < 1000 {
		t.Fatalf("only %d differential cases ran, want ≥ 1000", cases)
	}
}
