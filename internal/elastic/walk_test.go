package elastic_test

import (
	"context"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
)

// TestIncrementalWalkAfterKeptEpochs replays the diurnal experiment's
// Twitter-like timeline (scale 0.05, modulation seed 8) under the
// incremental hysteresis policy. Kept epochs leave slots above their
// headroom-derated recorded capacity, and the incremental index rebuilt
// over them must still absorb later re-rates: on this seed, epoch 19
// re-rates a topic on such a slot, and evicting the re-rated pairs alone
// does not bring it back under capacity. Every epoch must serve its
// workload within the true, un-derated fleet.
func TestIncrementalWalkAfterKeptEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("24-epoch walk over ~130k pairs")
	}
	base, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	mod := experiments.DiurnalModulation()
	mod.Epochs = 24
	mod.Seed = 8
	tl, err := tracegen.Diurnal(base, mod)
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := tl.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(experiments.DiurnalTau, experiments.ModelFor(pricing.C3Large, envelope))
	cfg.Fleet = experiments.FleetFor(envelope)
	policy := elastic.DefaultPolicy()
	policy.Incremental = true

	ctx := context.Background()
	wk, err := elastic.NewController(cfg, policy).Start(ctx, tl)
	if err != nil {
		t.Fatal(err)
	}
	for !wk.Done() {
		e := wk.NextEpoch()
		if _, err := wk.Step(ctx); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if err := core.VerifyServes(wk.Workload(), wk.Allocation(), cfg); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	if _, err := wk.Finish(); err != nil {
		t.Fatal(err)
	}
}
