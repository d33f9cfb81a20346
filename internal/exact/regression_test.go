package exact

import (
	"context"
	"math/rand"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// TestRegressionBandwidthRoundingVsLowerBound pins a micro instance (found
// by quick.Check) where the packing DP's old per-block bandwidth pricing
// floored the cost one microdollar below the canonical total-bytes price,
// so the reported "optimum" dipped below core.LowerBound. The DP now
// minimizes the exact GB-scaled objective and reprices the winner on the
// total, so lb ≤ exact ≤ heuristic must hold on this instance.
func TestRegressionBandwidthRoundingVsLowerBound(t *testing.T) {
	seed, tauRaw := int64(529614798291016909), uint8(0x88)
	rng := rand.New(rand.NewSource(seed))
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics:        1 + rng.Intn(4),
		Subscribers:   1 + rng.Intn(4),
		MaxFollowings: 2,
		MaxRate:       30,
		Seed:          rng.Int63(),
	})
	if err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	var maxRate int64
	for tid := 0; tid < w.NumTopics(); tid++ {
		if r := w.Rate(workload.TopicID(tid)); r > maxRate {
			maxRate = r
		}
	}
	cfg := core.Config{
		Tau:          int64(tauRaw)%100 + 1,
		MessageBytes: 1,
		Model:        testModel(2*maxRate + 40),
		Opts:         core.OptAll,
	}
	opt, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatalf("heuristic: %v", err)
	}
	lb, err := core.LowerBound(w, cfg)
	if err != nil {
		t.Fatalf("lb: %v", err)
	}
	t.Logf("topics=%d subs=%d pairs=%d tau=%d", w.NumTopics(), w.NumSubscribers(), w.NumPairs(), cfg.Tau)
	t.Logf("exact=%d heuristic=%d lb=%d", opt.Cost, res.Cost(cfg.Model), lb.Cost)
	if res.Cost(cfg.Model) < opt.Cost {
		t.Fatalf("heuristic %d beat exact %d", res.Cost(cfg.Model), opt.Cost)
	}
	if lb.Cost > opt.Cost {
		t.Fatalf("lower bound %d above exact optimum %d", lb.Cost, opt.Cost)
	}
}
