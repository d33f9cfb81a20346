package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pubsub-systems/mcss/internal/workload"
)

func TestComputeUtilizationManual(t *testing.T) {
	a := &Allocation{
		MessageBytes: 1,
		VMs: []*VM{
			{ID: 0, CapacityBytesPerHour: 100, InBytesPerHour: 10, OutBytesPerHour: 70,
				Placements: []TopicPlacement{{Topic: 0, Subs: []workload.SubID{0}}}},
			{ID: 1, CapacityBytesPerHour: 100, InBytesPerHour: 10, OutBytesPerHour: 30,
				Placements: []TopicPlacement{{Topic: 0, Subs: []workload.SubID{1}}}},
		},
	}
	u := a.ComputeUtilization()
	if u.MinFill != 0.4 || u.MaxFill != 0.8 {
		t.Errorf("fills = %v/%v, want 0.4/0.8", u.MinFill, u.MaxFill)
	}
	if u.MeanFill < 0.6-1e-12 || u.MeanFill > 0.6+1e-12 {
		t.Errorf("MeanFill = %v, want 0.6", u.MeanFill)
	}
	if u.WastedBytesPerHour != 20+60 {
		t.Errorf("Wasted = %d, want 80", u.WastedBytesPerHour)
	}
	// Incoming 20 of 120 total.
	want := 20.0 / 120.0
	if u.IncomingShare != want {
		t.Errorf("IncomingShare = %v, want %v", u.IncomingShare, want)
	}
	if u.SplitTopics != 1 || u.MaxVMsPerTopic != 2 {
		t.Errorf("split = %d/%d, want 1/2", u.SplitTopics, u.MaxVMsPerTopic)
	}
}

func TestComputeUtilizationEmpty(t *testing.T) {
	a := &Allocation{}
	u := a.ComputeUtilization()
	if u.MeanFill != 0 || u.SplitTopics != 0 {
		t.Errorf("empty utilization = %+v", u)
	}
}

func TestPropertyUtilizationBounds(t *testing.T) {
	f := func(seed int64, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%300) + 1
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			if r := w.Rate(workload.TopicID(tid)); r > maxRate {
				maxRate = r
			}
		}
		cfg := configWith(tau, 2*maxRate+500, CustomBinPackingContext, OptAll)
		res, err := SolveContext(context.Background(), w, cfg)
		if err != nil {
			return false
		}
		u := res.Allocation.ComputeUtilization()
		if res.Allocation.NumVMs() == 0 {
			return u == (Utilization{})
		}
		// The mean is a float summation; allow rounding slack against
		// the exact min/max (all-equal fills round the mean a few ulps
		// below the min).
		const eps = 1e-9
		if u.MinFill <= 0 || u.MaxFill > 1 || u.MinFill-u.MeanFill > eps || u.MeanFill-u.MaxFill > eps {
			return false
		}
		if u.MedianFill < u.MinFill || u.MedianFill > u.MaxFill {
			return false
		}
		if u.IncomingShare <= 0 || u.IncomingShare >= 1 {
			return false
		}
		return u.MaxVMsPerTopic >= 1 && u.MaxVMsPerTopic <= res.Allocation.NumVMs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
