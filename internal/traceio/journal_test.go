package traceio

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// wholePlanCodec writes plan bodies as earlier journals did: the whole
// plan document, target included, indented as WritePlan writes it or
// compact as the journal codec once wrote it. The journal now hands it
// plan-begin bodies without their target; it puts back the target of the
// matching plan among plans.
func wholePlanCodec(indent bool, plans ...*deploy.Plan) deploy.JournalCodec {
	c := PlanJournalCodec()
	c.EncodePlan = func(p *deploy.Plan) ([]byte, error) {
		if p.Target == nil {
			for _, whole := range plans {
				if whole.BaseFingerprint == p.BaseFingerprint && len(whole.Steps) == len(p.Steps) {
					p = whole
				}
			}
		}
		if !indent {
			doc, err := planToDoc(p)
			if err != nil {
				return nil, err
			}
			return json.Marshal(doc)
		}
		var buf bytes.Buffer
		err := WritePlan(p, &buf)
		return buf.Bytes(), err
	}
	return c
}

// TestRecoverIndentedJournal: a journal whose snapshot and plan-begin
// bodies are indented documents recovers under PlanJournalCodec to the
// state, fingerprints and NextStep it was written with, both mid-plan and
// after the commit.
func TestRecoverIndentedJournal(t *testing.T) {
	boot := goldenPlan(t)
	cfg := core.DefaultConfig(boot.Tau, boot.Model)
	cfg.Fleet = boot.Fleet
	base := boot.Target
	next, err := dynamic.ApplyDelta(base.Workload, dynamic.Delta{
		RateChanges:    map[workload.TopicID]int64{0: 300},
		NewSubscribers: 1,
		Subscribe:      []workload.Pair{{Topic: 1, Sub: 5}, {Topic: 2, Sub: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solvePlan(context.Background(), cfg, next, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) < 3 {
		t.Fatalf("plan has %d steps; want at least 3", len(plan.Steps))
	}
	snap, err := deploy.Snapshot(cfg, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "indented.journal")
	j, err := deploy.OpenJournal(path, wholePlanCodec(true, plan), deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.AppendSnapshot(-1, snap))
	must(j.AppendPlanBegin(3, plan))
	must(j.AppendStepDone(3, 0))
	must(j.AppendStepDone(3, 1))
	must(j.Close())
	raw, err := os.ReadFile(path)
	must(err)
	if !bytes.Contains(raw, []byte("{\n  \"format\": \"mcss-plan\"")) {
		t.Fatal("journal bodies are not indented documents")
	}
	if body := beginBody(t, path); !bytes.Contains(body, []byte("\n  \"target\": {")) {
		t.Fatal("plan-begin body is not the whole indented plan")
	}

	rec, err := RecoverJournal(path)
	must(err)
	if got, want := rec.State.Fingerprint(), base.Fingerprint(); got != want {
		t.Fatalf("recovered state %s, snapshot %s", got, want)
	}
	if rec.InFlight == nil || rec.InFlightEpoch != 3 || rec.NextStep != 2 {
		t.Fatalf("in flight %v (epoch %d), next step %d; want the plan of epoch 3 at step 2",
			rec.InFlight != nil, rec.InFlightEpoch, rec.NextStep)
	}
	assertPlansEquivalent(t, plan, rec.InFlight)

	// Finish the plan through the same old-format journal: recovery lands
	// on the plan's target.
	j, err = deploy.OpenJournal(path, wholePlanCodec(true, plan), deploy.JournalOptions{})
	must(err)
	for i := 2; i < len(plan.Steps); i++ {
		must(j.AppendStepDone(3, i))
	}
	must(j.AppendPlanCommit(3, plan.TargetFingerprint()))
	must(j.Close())
	rec, err = RecoverJournal(path)
	must(err)
	if rec.InFlight != nil || rec.Committed != 1 || rec.Epoch != 3 {
		t.Fatalf("in flight %v, committed %d, epoch %d; want the plan committed at epoch 3",
			rec.InFlight != nil, rec.Committed, rec.Epoch)
	}
	if got, want := rec.State.Fingerprint(), plan.TargetFingerprint(); got != want {
		t.Fatalf("recovered state %s, plan target %s", got, want)
	}
}

// TestJournalBodiesAreCompact: the journal codec writes WritePlan's
// document without indentation, and it decodes to the same plan.
func TestJournalBodiesAreCompact(t *testing.T) {
	plan := goldenPlan(t)
	codec := PlanJournalCodec()
	body, err := codec.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	var indented, compacted bytes.Buffer
	if err := WritePlan(plan, &indented); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compacted, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, compacted.Bytes()) {
		t.Fatalf("journal body is not the compacted plan document:\n%s\nwant:\n%s", body, compacted.Bytes())
	}
	back, err := codec.DecodePlan(body)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEquivalent(t, plan, back)
}

// beginBody returns the body of the journal's first plan-begin record.
func beginBody(t testing.TB, path string) []byte {
	t.Helper()
	recs, _, err := deploy.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == deploy.RecPlanBegin {
			return r.Body
		}
	}
	t.Fatal("journal has no plan-begin record")
	return nil
}

// goldenFollowup plans a small change from the golden plan's target: a
// re-rate, a new subscriber and two subscriptions.
func goldenFollowup(t testing.TB) (core.Config, *deploy.State, *deploy.Plan) {
	t.Helper()
	boot := goldenPlan(t)
	cfg := core.DefaultConfig(boot.Tau, boot.Model)
	cfg.Fleet = boot.Fleet
	next, err := dynamic.ApplyDelta(boot.Target.Workload, dynamic.Delta{
		RateChanges:    map[workload.TopicID]int64{0: 300},
		NewSubscribers: 1,
		Subscribe:      []workload.Pair{{Topic: 1, Sub: 5}, {Topic: 2, Sub: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solvePlan(context.Background(), cfg, next, boot.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) < 3 {
		t.Fatalf("plan has %d steps; want at least 3", len(plan.Steps))
	}
	return cfg, boot.Target, plan
}

// crashApply opens a journal at path with codec, checkpoints base, and
// runs a journaled apply of plan at epoch 3 that crashes before step k.
func crashApply(t testing.TB, path string, codec deploy.JournalCodec, cfg core.Config, base *deploy.State, plan *deploy.Plan, k int) {
	t.Helper()
	j, err := deploy.OpenJournal(path, codec, deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := deploy.Snapshot(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSnapshot(2, snap); err != nil {
		t.Fatal(err)
	}
	prov, err := base.Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crash := deploy.NewFaultInjector(deploy.NopExecutor, deploy.FaultConfig{Crash: true, CrashAtStep: k})
	_, err = deploy.Apply(context.Background(), plan, prov,
		deploy.WithJournal(j), deploy.WithExecutor(crash), deploy.WithApplyEpoch(3))
	if !errors.Is(err, deploy.ErrSimulatedCrash) {
		t.Fatalf("want a simulated crash, got %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// resumeApply recovers the journal at path, checks the plan is in flight
// at step next, and finishes it with the current codec.
func resumeApply(t *testing.T, path string, cfg core.Config, plan *deploy.Plan, next int) *deploy.Recovery {
	t.Helper()
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.InFlight == nil || rec.InFlightEpoch != 3 || rec.NextStep != next {
		t.Fatalf("in flight %v (epoch %d), next step %d; want the plan of epoch 3 at step %d",
			rec.InFlight != nil, rec.InFlightEpoch, rec.NextStep, next)
	}
	assertPlansEquivalent(t, plan, rec.InFlight)
	prov, err := rec.State.Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.Apply(context.Background(), rec.InFlight, prov,
		deploy.WithJournal(j), deploy.WithApplyEpoch(3), deploy.ResumeFrom(rec.NextStep)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err = RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.InFlight != nil || rec.Committed != 1 || rec.Epoch != 3 {
		t.Fatalf("in flight %v, committed %d, epoch %d; want the plan committed at epoch 3",
			rec.InFlight != nil, rec.Committed, rec.Epoch)
	}
	if got, want := rec.State.Fingerprint(), plan.TargetFingerprint(); got != want {
		t.Fatalf("recovered state %s, plan target %s", got, want)
	}
	return rec
}

// TestRecoverWholePlanJournal: a journal written the way earlier versions
// wrote it — compact whole-plan documents, target included, in plan-begin
// records — recovers under PlanJournalCodec with the plan in flight after
// a crash, and the resumed apply commits to the plan's target.
func TestRecoverWholePlanJournal(t *testing.T) {
	cfg, base, plan := goldenFollowup(t)
	path := filepath.Join(t.TempDir(), "whole.journal")
	crashApply(t, path, wholePlanCodec(false, plan), cfg, base, plan, 2)
	if body := beginBody(t, path); !bytes.Contains(body, []byte(`"target":{`)) {
		t.Fatalf("plan-begin body is not the whole plan: %s", body)
	}
	resumeApply(t, path, cfg, plan, 2)
}

// TestPlanBeginBodyWithoutTarget: a journaled apply writes the plan-begin
// body without the target, the body decodes to a plan without one, and
// recovery rebuilds the target — mid-plan and after the commit.
func TestPlanBeginBodyWithoutTarget(t *testing.T) {
	cfg, base, plan := goldenFollowup(t)
	path := filepath.Join(t.TempDir(), "apply.journal")
	crashApply(t, path, PlanJournalCodec(), cfg, base, plan, 1)
	body := beginBody(t, path)
	if bytes.Contains(body, []byte(`"target`)) {
		t.Fatalf("plan-begin body carries the target: %s", body)
	}
	whole, err := PlanJournalCodec().EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= len(whole) {
		t.Fatalf("plan-begin body is %d bytes, the whole plan %d", len(body), len(whole))
	}
	decoded, err := PlanJournalCodec().DecodePlan(body)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Target != nil || decoded.TargetRegions != nil {
		t.Fatal("an untagged plan-begin body decodes with a target or region tags")
	}
	resumeApply(t, path, cfg, plan, 1)
}

// regionFollowup bootstraps a region-tagged workload on a two-region
// topology, then plans a change that adds a topic and two subscribers in
// region 1 and moves subscriber 0 there. It returns the config, the
// bootstrapped state, the next workload and the plan.
func regionFollowup(t testing.TB) (core.Config, *deploy.State, *workload.Workload, *deploy.Plan) {
	t.Helper()
	net := core.SyntheticTopology(2)
	base, err := workloadForGolden(t).WithRegions([]int32{0, 1, 0}, []int32{0, 1, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 100_000
	cfg := core.DefaultConfig(40, model)
	cfg.Topology = net
	if cfg.Fleet, err = core.RegionalFleet(model.SingleFleet(), net); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	boot, err := solvePlan(ctx, cfg, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := dynamic.ApplyDelta(base, dynamic.Delta{
		NewTopics:      []int64{25},
		NewSubscribers: 2,
		Subscribe:      []workload.Pair{{Topic: 3, Sub: 5}, {Topic: 0, Sub: 6}, {Topic: 3, Sub: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	next, err := grown.WithRegions([]int32{0, 1, 0, 1}, []int32{1, 1, 1, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solvePlan(ctx, cfg, next, boot.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) < 2 {
		t.Fatalf("plan has %d steps; want at least 2", len(plan.Steps))
	}
	return cfg, boot.Target, next, plan
}

// TestRecoverBodyRegionTags: a region-tagged plan that adds topics and
// subscribers (tagged outside the home region) journals the target's tags
// with its begin body, and recovery rebuilds the target with them.
func TestRecoverBodyRegionTags(t *testing.T) {
	cfg, base, next, plan := regionFollowup(t)
	path := filepath.Join(t.TempDir(), "regions.journal")
	crashApply(t, path, PlanJournalCodec(), cfg, base, plan, 1)
	body := beginBody(t, path)
	if bytes.Contains(body, []byte(`"target"`)) || !bytes.Contains(body, []byte(`"target_regions"`)) {
		t.Fatalf("plan-begin body is not the target-less body with region tags: %s", body)
	}
	assertTags := func(what string, w *workload.Workload) {
		t.Helper()
		for tp := 0; tp < next.NumTopics(); tp++ {
			if got, want := w.TopicRegion(workload.TopicID(tp)), next.TopicRegion(workload.TopicID(tp)); got != want {
				t.Fatalf("%s: topic %d in region %d, want %d", what, tp, got, want)
			}
		}
		for v := 0; v < next.NumSubscribers(); v++ {
			if got, want := w.SubscriberRegion(workload.SubID(v)), next.SubscriberRegion(workload.SubID(v)); got != want {
				t.Fatalf("%s: subscriber %d in region %d, want %d", what, v, got, want)
			}
		}
	}
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.InFlight == nil {
		t.Fatal("crashed plan not in flight")
	}
	assertTags("in-flight target", rec.InFlight.Target.Workload)
	rec = resumeApply(t, path, cfg, plan, 1)
	assertTags("recovered state", rec.State.Workload)
}

// TestApplyRefusesDiffMismatch: a plan file whose diff was edited so it no
// longer describes the target is refused before plan-begin, so the
// journal never holds a record recovery cannot rebuild.
func TestApplyRefusesDiffMismatch(t *testing.T) {
	cfg, base, plan := goldenFollowup(t)
	var buf bytes.Buffer
	if err := WritePlan(plan, &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	diff := doc["diff"].(map[string]any)
	diff["subscribe"] = diff["subscribe"].([]any)[1:] // drop one subscription
	edited, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	tampered, err := ReadPlan(bytes.NewReader(edited))
	if err != nil {
		t.Fatalf("the edited plan must still parse: %v", err)
	}

	path := filepath.Join(t.TempDir(), "apply.journal")
	j, err := OpenJournal(path, deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := deploy.Snapshot(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSnapshot(2, snap); err != nil {
		t.Fatal(err)
	}
	prov, err := base.Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.Apply(context.Background(), tampered, prov, deploy.WithJournal(j)); !errors.Is(err, deploy.ErrInvalidPlan) {
		t.Fatalf("apply of a plan whose diff disagrees with its target: got %v, want ErrInvalidPlan", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := deploy.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("journal holds %d records after the refusal, want only the snapshot", len(recs))
	}
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.InFlight != nil || rec.State.Fingerprint() != base.Fingerprint() {
		t.Fatal("refused plan moved the recovered state")
	}
	if deploy.StateOf(prov).Fingerprint() != base.Fingerprint() {
		t.Fatal("refused plan moved the provisioner")
	}
}

// v1Journaling reads the committed version-1 plan file and returns the
// plan with its config, and a journal codec that writes the file without
// its target, a version-1 plan-begin body, for the plan's begin record.
func v1Journaling(t testing.TB) (core.Config, *deploy.Plan, deploy.JournalCodec) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "plan_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ReadPlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "target")
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	codec := PlanJournalCodec()
	encode := codec.EncodePlan
	codec.EncodePlan = func(p *deploy.Plan) ([]byte, error) {
		if p.Target == nil {
			return body, nil
		}
		return encode(p)
	}
	cfg := core.DefaultConfig(plan.Tau, plan.Model)
	cfg.Fleet = plan.Fleet
	return cfg, plan, codec
}

// TestRecoverV1PlanBeginBody: a journal that crashed inside a plan whose
// plan-begin body is a version-1 document (steps placing one topic's
// subscribers, no target) recovers with the plan in flight at its
// journaled step k, for every k, and the resumed apply commits to the
// plan's target. The body is the committed v1 plan file without its
// target; the step-done records count v1 steps, which the decoder keeps
// one for one.
func TestRecoverV1PlanBeginBody(t *testing.T) {
	cfg, plan, codec := v1Journaling(t)
	if got, want := plan.TargetFingerprint(), goldenPlan(t).TargetFingerprint(); got != want {
		t.Fatalf("v1 plan target %s, golden target %s", got, want)
	}
	snap, err := deploy.Snapshot(cfg, deploy.EmptyState())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(plan.Steps); k++ {
		path := filepath.Join(t.TempDir(), "v1.journal")
		j, err := deploy.OpenJournal(path, codec, deploy.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AppendSnapshot(2, snap); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendPlanBegin(3, plan); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := j.AppendStepDone(3, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if body := beginBody(t, path); !bytes.Contains(body, []byte(`"op":"place"`)) || bytes.Contains(body, []byte(`"target"`)) {
			t.Fatalf("plan-begin body is not the v1 body without the target: %s", body)
		}
		resumeApply(t, path, cfg, plan, k)
	}
}
