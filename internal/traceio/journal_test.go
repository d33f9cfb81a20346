package traceio

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// indentedJournalCodec writes plan bodies as earlier journals did:
// WritePlan's indented document.
func indentedJournalCodec() deploy.JournalCodec {
	c := PlanJournalCodec()
	c.EncodePlan = func(p *deploy.Plan) ([]byte, error) {
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
	plan, err := deploy.NewPlanner(cfg).Plan(context.Background(), deploy.SpecFromWorkload(next), base)
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
	j, err := deploy.OpenJournal(path, indentedJournalCodec(), deploy.JournalOptions{})
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
	j, err = deploy.OpenJournal(path, indentedJournalCodec(), deploy.JournalOptions{})
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
