package elastic

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/traceio"
)

// journaledSpotWalk builds a 10-epoch timeline and a controller on a
// volatile spot market (reprices and reclamations at test size) whose
// applies journal to a fresh journal, returned with its path.
func journaledSpotWalk(t *testing.T) (*timeline.Timeline, *Controller, *deploy.Journal, string) {
	t.Helper()
	tl, cfg := testTimeline(t, 10, 60)
	base := cfg.EffectiveFleet()
	mcfg := spot.DefaultMarketConfig()
	mcfg.Epochs = tl.NumEpochs()
	mcfg.EpochMinutes = tl.EpochMinutes
	mcfg.BaseReclaimProb = 0.08
	mcfg.Seed = 11
	market, err := spot.GenerateMarket(base, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "apply.journal")
	j, err := traceio.OpenJournal(path, deploy.JournalOptions{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	ctl := NewController(cfg, DefaultPolicy())
	if err := ctl.SetSpotMarket(market, 23); err != nil {
		t.Fatal(err)
	}
	ctl.SetApplyHook(func(epoch int) []deploy.ApplyOption {
		return []deploy.ApplyOption{deploy.WithJournal(j), deploy.WithApplyEpoch(epoch)}
	})
	return tl, ctl, j, path
}

// TestJournaledSpotWalkRecovers walks a journaled spot timeline with
// chaos, the way allocatord -spot -data-dir does without compaction.
// After every Step the journal must recover to the live state with no plan
// in flight, and every retained EpochReport.Plan target must still hash to
// the fingerprint its commit record carries. Price epochs and crash
// repairs both install states outside the epoch's plan: the reprice must
// not rewrite the held allocation (the last plan's target), and both
// states must reach the journal within their step.
func TestJournaledSpotWalkRecovers(t *testing.T) {
	tl, ctl, j, path := journaledSpotWalk(t)
	ctx := context.Background()
	wk, err := ctl.Start(ctx, tl)
	if err != nil {
		t.Fatal(err)
	}
	repriced, reclaimed := 0, 0
	for !wk.Done() {
		ep, err := wk.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ep.Repriced && ep.Epoch > 0 {
			repriced++
		}
		reclaimed += ep.ReclaimedVMs
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		rec, err := traceio.RecoverJournal(path)
		if err != nil {
			t.Fatalf("epoch %d: recover: %v", ep.Epoch, err)
		}
		if rec.InFlight != nil {
			t.Fatalf("epoch %d: plan of epoch %d left in flight", ep.Epoch, rec.InFlightEpoch)
		}
		live := dynamic.StateFingerprint(wk.Workload(), wk.Allocation())
		if got := rec.State.Fingerprint(); got != live {
			t.Fatalf("epoch %d (repriced %v, reclaimed %d): journal recovers %s, live state is %s",
				ep.Epoch, ep.Repriced, ep.ReclaimedVMs, got, live)
		}
		if rec.Epoch != int64(ep.Epoch) {
			t.Fatalf("epoch %d: journal recovers epoch %d", ep.Epoch, rec.Epoch)
		}
	}
	if repriced == 0 || reclaimed == 0 {
		t.Fatalf("walk had %d price epochs and %d reclaimed VMs; the test needs both", repriced, reclaimed)
	}
	rep, err := wk.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Each epoch's first commit is its plan's; a repaired epoch commits
	// once more, after its checkpoint.
	recs, _, err := deploy.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	commits := make(map[int64]string)
	for _, r := range recs {
		if _, seen := commits[r.Epoch]; r.Type == deploy.RecPlanCommit && !seen {
			commits[r.Epoch] = r.Fingerprint
		}
	}
	for _, ep := range rep.Epochs {
		target := ep.Plan.Target
		if got, want := dynamic.StateFingerprint(target.Workload, target.Allocation), commits[int64(ep.Epoch)]; got != want {
			t.Fatalf("epoch %d: retained plan target hashes to %s, its commit record says %s", ep.Epoch, got, want)
		}
	}
}

// TestResumeJournaledSpotWalk: a journaled spot walk stopped mid-timeline
// resumes from its journal, as allocatord does after a crash, and walks
// to the end with the journal still recovering to the live state. The
// recovered fleet holds spot variants, which the resumed walk must bill at
// the schedule's rates rather than look up in the base fleet.
func TestResumeJournaledSpotWalk(t *testing.T) {
	tl, ctl, j, path := journaledSpotWalk(t)
	ctx := context.Background()
	wk, err := ctl.Start(ctx, tl)
	if err != nil {
		t.Fatal(err)
	}
	for wk.NextEpoch() < 5 {
		if _, err := wk.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := traceio.RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spotVMs := 0
	for _, vm := range rec.State.Allocation.VMs {
		if pricing.IsSpot(vm.Instance.Name) {
			spotVMs++
		}
	}
	if spotVMs == 0 {
		t.Fatal("the recovered state holds no spot VM; the resume would not bill one")
	}
	resumed, err := ctl.ResumeRecovery(ctx, tl, rec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NextEpoch() != 5 {
		t.Fatalf("resumed at epoch %d, want 5", resumed.NextEpoch())
	}
	for !resumed.Done() {
		if _, err := resumed.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err = traceio.RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.State.Fingerprint(), dynamic.StateFingerprint(resumed.Workload(), resumed.Allocation()); got != want {
		t.Fatalf("journal recovers %s after the resumed walk, live state is %s", got, want)
	}
}
