package elastic

import (
	"bytes"
	"context"
	"testing"

	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/traceio"
)

// TestControllerEmitsPlanPerEpoch: under both the hysteresis and the
// oracle policy, every epoch of a controller run carries the plan that
// enacted it, the adopted allocation is exactly the plan's target (it
// fingerprints to TargetFingerprint), the plans chain by fingerprint
// (epoch e's target is epoch e+1's base), the forecast matches the
// adopted allocation, and each plan survives the wire format.
func TestControllerEmitsPlanPerEpoch(t *testing.T) {
	tl, cfg := testTimeline(t, 8, 60)
	for _, policy := range []Policy{DefaultPolicy(), OraclePolicy()} {
		rep, err := NewController(cfg, policy).Run(context.Background(), tl)
		if err != nil {
			t.Fatal(err)
		}
		for e, ep := range rep.Epochs {
			if ep.Plan == nil {
				t.Fatalf("%s: epoch %d has no plan", rep.Strategy, e)
			}
			if got, want := dynamic.StateFingerprint(tl.Epochs[e], rep.Allocations[e]), ep.Plan.TargetFingerprint(); got != want {
				t.Fatalf("%s: epoch %d: adopted allocation fingerprints to %s, plan target %s",
					rep.Strategy, e, got, want)
			}
			if ep.Plan.CostAfter != rep.Allocations[e].Cost(cfg.Model) {
				t.Fatalf("%s: epoch %d: plan forecast %v != adopted cost %v",
					rep.Strategy, e, ep.Plan.CostAfter, rep.Allocations[e].Cost(cfg.Model))
			}
			if e > 0 {
				if got, want := ep.Plan.BaseFingerprint, rep.Epochs[e-1].Plan.TargetFingerprint(); got != want {
					t.Fatalf("%s: epoch %d: base fingerprint %s does not chain from epoch %d target %s",
						rep.Strategy, e, got, e-1, want)
				}
			}
			// A kept epoch shows up as a low-churn plan, an adopted one as
			// the preview's churn; either way the diff stats are recorded.
			if ep.Adopted && e > 0 && ep.Plan.Diff.Stats.PairsMoved != ep.PairsMoved {
				t.Fatalf("%s: epoch %d: plan churn %d != reported %d",
					rep.Strategy, e, ep.Plan.Diff.Stats.PairsMoved, ep.PairsMoved)
			}
		}
		// The audit trail round-trips: serialize one mid-run plan and
		// check the fingerprints survive.
		var buf bytes.Buffer
		mid := rep.Epochs[len(rep.Epochs)/2].Plan
		if err := traceio.WritePlan(mid, &buf); err != nil {
			t.Fatal(err)
		}
		back, err := traceio.ReadPlan(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.BaseFingerprint != mid.BaseFingerprint || back.TargetFingerprint() != mid.TargetFingerprint() {
			t.Fatalf("%s: serialized epoch plan lost its fingerprints", rep.Strategy)
		}
	}
}

// BenchmarkControllerPlanMediated times a hysteresis run in which every
// epoch is enacted through a plan (step extraction, fingerprinting,
// replay, verification) — the number quoted in EXPERIMENTS.md.
func BenchmarkControllerPlanMediated(b *testing.B) {
	tl, cfg := testTimeline(b, 12, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewController(cfg, DefaultPolicy()).Run(context.Background(), tl); err != nil {
			b.Fatal(err)
		}
	}
}
