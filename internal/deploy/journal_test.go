package deploy_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/traceio"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// These tests live in deploy_test because they exercise the journal with
// the real plan body codec, which lives in traceio (traceio imports
// deploy, so the in-package tests cannot).

// jcfg packs jworkload onto 6-9 c3.large VMs, so that a plan between two
// of its solves boots, reconfigures and retires several brokers.
func jcfg() core.Config {
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 120_000
	return core.DefaultConfig(40, model)
}

// jcfgTwoTypes is jcfg on a c3.large/c3.xlarge fleet calibrated like the
// model, so that a plan can replace a slot with the other type.
func jcfgTwoTypes(t testing.TB) core.Config {
	t.Helper()
	cfg := jcfg()
	fleet, err := pricing.NewFleet(pricing.C3Large, pricing.C3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet = fleet.WithBytesPerMbps(cfg.Model.CapacityBytesPerHour() / pricing.C3Large.LinkMbps)
	return cfg
}

func jworkload(t testing.TB, seed int64) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 12, Subscribers: 40, MaxFollowings: 4, MaxRate: 120, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// jplan solves w against base and wraps the move in a plan.
func jplan(t testing.TB, cfg core.Config, base *deploy.State, w *workload.Workload) *deploy.Plan {
	t.Helper()
	plan, err := deploy.SolvePlan(context.Background(), cfg, w, base)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "apply.journal")
}

// applyJournaled runs a journaled apply of plan from base and returns the
// journal path.
func applyJournaled(t *testing.T, cfg core.Config, base *deploy.State, plan *deploy.Plan, epoch int) string {
	t.Helper()
	path := journalPath(t)
	j, err := traceio.OpenJournal(path, deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := deploy.Snapshot(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSnapshot(int64(epoch)-1, snap); err != nil {
		t.Fatal(err)
	}
	prov, err := base.Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.Apply(context.Background(), plan, prov,
		deploy.WithJournal(j), deploy.WithApplyEpoch(epoch)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalRoundTrip(t *testing.T) {
	cfg := jcfg()
	plan := jplan(t, cfg, nil, jworkload(t, 1))
	path := applyJournaled(t, cfg, deploy.EmptyState(), plan, 0)

	recs, torn, err := deploy.ReadJournalFile(path)
	if err != nil || torn {
		t.Fatalf("clean journal reads torn=%v err=%v", torn, err)
	}
	// snapshot + begin + one step-done per step + commit.
	want := 3 + len(plan.Steps)
	if len(recs) != want {
		t.Fatalf("journal has %d records, want %d", len(recs), want)
	}
	if recs[0].Type != deploy.RecSnapshot || recs[1].Type != deploy.RecPlanBegin ||
		recs[len(recs)-1].Type != deploy.RecPlanCommit {
		t.Fatalf("record shape wrong: %c ... %c", recs[0].Type, recs[len(recs)-1].Type)
	}

	rec, err := traceio.RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.InFlight != nil || rec.Committed != 1 || rec.Snapshots != 1 {
		t.Fatalf("recovery: inflight=%v committed=%d snapshots=%d", rec.InFlight, rec.Committed, rec.Snapshots)
	}
	if got, want := rec.State.Fingerprint(), plan.TargetFingerprint(); got != want {
		t.Fatalf("recovered %s, want target %s", got, want)
	}
	if rec.Epoch != 0 {
		t.Fatalf("recovered epoch %d, want 0", rec.Epoch)
	}
	if rec.Model.Instance.Name == "" {
		t.Fatal("recovery dropped the pricing model")
	}
}

// TestJournalTornTail: bytes cut mid-record are the normal crash artifact —
// reads drop the tail and report torn, reopening truncates it away, and
// appends continue from the valid prefix.
func TestJournalTornTail(t *testing.T) {
	cfg := jcfg()
	plan := jplan(t, cfg, nil, jworkload(t, 2))
	path := applyJournaled(t, cfg, deploy.EmptyState(), plan, 0)

	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := deploy.ReadJournalFile(path)
	if err != nil {
		t.Fatalf("torn tail must not be corruption: %v", err)
	}
	if !torn {
		t.Fatal("torn tail not reported")
	}
	// The commit record was torn off: recovery resumes the plan.
	rec, err := deploy.Recover(recs, torn, traceio.PlanJournalCodec())
	if err != nil {
		t.Fatal(err)
	}
	if rec.InFlight == nil || rec.NextStep != len(plan.Steps) {
		t.Fatalf("torn-commit recovery: inflight=%v next=%d, want open plan at %d",
			rec.InFlight != nil, rec.NextStep, len(plan.Steps))
	}

	// Reopen truncates the tail; the journal accepts appends again.
	j, err := traceio.OpenJournal(path, deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPlanCommit(0, plan.TargetFingerprint()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err = traceio.RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.InFlight != nil || rec.State.Fingerprint() != plan.TargetFingerprint() {
		t.Fatal("re-appended commit did not close the plan")
	}
}

// TestJournalCorruption: a flipped payload byte is ErrCorruptJournal, and
// recovery still returns the state the valid prefix establishes.
func TestJournalCorruption(t *testing.T) {
	cfg := jcfg()
	plan := jplan(t, cfg, nil, jworkload(t, 3))
	path := applyJournaled(t, cfg, deploy.EmptyState(), plan, 0)

	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)-1] ^= 0xFF // inside the commit record's payload
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := deploy.ReadJournalFile(path)
	if !errors.Is(err, deploy.ErrCorruptJournal) {
		t.Fatalf("flipped byte read as torn=%v err=%v, want ErrCorruptJournal", torn, err)
	}
	if len(recs) != 2+len(plan.Steps) {
		t.Fatalf("prefix records %d, want %d", len(recs), 2+len(plan.Steps))
	}
	rec, rerr := traceio.RecoverJournal(path)
	if !errors.Is(rerr, deploy.ErrCorruptJournal) {
		t.Fatalf("recovery err %v, want ErrCorruptJournal", rerr)
	}
	if rec == nil || rec.InFlight == nil {
		t.Fatal("partial recovery must still surface the in-flight plan")
	}
	if got, want := rec.State.Fingerprint(), plan.BaseFingerprint; got != want {
		t.Fatalf("partial recovery state %s, want base %s", got, want)
	}

	// OpenJournal refuses a corrupt file rather than appending after damage.
	if _, err := traceio.OpenJournal(path, deploy.JournalOptions{}); !errors.Is(err, deploy.ErrCorruptJournal) {
		t.Fatalf("open on corrupt journal: %v, want ErrCorruptJournal", err)
	}
}

// TestRecoverChainViolations: structurally valid records whose fingerprint
// chain is broken are corruption, not state.
func TestRecoverChainViolations(t *testing.T) {
	cfg := jcfg()
	plan := jplan(t, cfg, nil, jworkload(t, 4))
	codec := traceio.PlanJournalCodec()
	body, err := codec.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		recs []deploy.Record
	}{
		{"begin does not extend state", []deploy.Record{
			{Type: deploy.RecPlanBegin, Fingerprint: "bogus-base", Body: body},
		}},
		{"step-done outside a plan", []deploy.Record{
			{Type: deploy.RecStepDone, Step: 0},
		}},
		{"step-done out of order", []deploy.Record{
			{Type: deploy.RecPlanBegin, Fingerprint: plan.BaseFingerprint, Body: body},
			{Type: deploy.RecStepDone, Step: 1},
		}},
		{"commit fingerprint mismatch", []deploy.Record{
			{Type: deploy.RecPlanBegin, Fingerprint: plan.BaseFingerprint, Body: body},
			{Type: deploy.RecPlanCommit, Fingerprint: "not-the-target"},
		}},
		{"abort fingerprint mismatch", []deploy.Record{
			{Type: deploy.RecPlanBegin, Fingerprint: plan.BaseFingerprint, Body: body},
			{Type: deploy.RecPlanAbort, Fingerprint: "not-the-base"},
		}},
		{"begin inside open plan", []deploy.Record{
			{Type: deploy.RecPlanBegin, Fingerprint: plan.BaseFingerprint, Body: body},
			{Type: deploy.RecPlanBegin, Fingerprint: plan.BaseFingerprint, Body: body},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := deploy.Recover(tc.recs, false, codec); !errors.Is(err, deploy.ErrCorruptJournal) {
				t.Fatalf("got %v, want ErrCorruptJournal", err)
			}
		})
	}
}

func TestJournalCompact(t *testing.T) {
	cfg := jcfg()
	plan := jplan(t, cfg, nil, jworkload(t, 5))
	path := applyJournaled(t, cfg, deploy.EmptyState(), plan, 0)

	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := traceio.OpenJournal(path, deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := deploy.Snapshot(cfg, plan.Target)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(0, snap); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction grew the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends after compaction land in the replacement file.
	plan2 := jplan(t, cfg, plan.Target, jworkload(t, 6))
	if err := j.AppendPlanBegin(1, plan2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := traceio.RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshots != 1 || rec.State.Fingerprint() != plan.TargetFingerprint() {
		t.Fatalf("compacted recovery: snapshots=%d fp=%s", rec.Snapshots, rec.State.Fingerprint())
	}
	if rec.InFlight == nil || rec.InFlightEpoch != 1 {
		t.Fatal("post-compaction begin record lost")
	}
}

// crashLink is one apply the crash tests interrupt: a plan, the state it
// applies to, and the config its provisioner and verifier use.
type crashLink struct {
	cfg  core.Config
	base *deploy.State
	plan *deploy.Plan
}

// crashLinks chains the applies the crash tests interrupt: a bootstrap of
// jworkload(seed) from the empty cluster, a solve of jworkload(next) from
// there, and on the two-type fleet, a solve of jworkload(next) from a
// two-type bootstrap of jworkload(seed).
func crashLinks(t testing.TB, seed, next int64) []crashLink {
	t.Helper()
	cfg, cfg2 := jcfg(), jcfgTwoTypes(t)
	boot := jplan(t, cfg, nil, jworkload(t, seed))
	boot2 := jplan(t, cfg2, nil, jworkload(t, seed))
	return []crashLink{
		{cfg, deploy.EmptyState(), boot},
		{cfg, boot.Target, jplan(t, cfg, boot.Target, jworkload(t, next))},
		{cfg2, boot2.Target, jplan(t, cfg2, boot2.Target, jworkload(t, next))},
	}
}

// assertStepMix requires the links' plans to hold every kind of broker
// step a crash can interrupt: boots of new slots, reconfigurations,
// retirements of trailing slots, and a replaced slot (a retire-vm and a
// boot-vm of one slot in one plan); and at least minSteps steps in all.
func assertStepMix(t *testing.T, links []crashLink, minSteps int) {
	t.Helper()
	var boots, reconfigures, trailing, replaced, total int
	for _, l := range links {
		vms := l.plan.Target.Allocation.NumVMs()
		retired := make(map[int]bool)
		for _, s := range l.plan.Steps {
			switch s.Op {
			case dynamic.OpBootVM:
				if retired[s.VM] {
					replaced++
				} else {
					boots++
				}
			case dynamic.OpReconfigure:
				reconfigures++
			case dynamic.OpRetireVM:
				retired[s.VM] = true
				if s.VM >= vms {
					trailing++
				}
			}
		}
		total += len(l.plan.Steps)
	}
	if boots == 0 || reconfigures == 0 || trailing == 0 || replaced == 0 || total < minSteps {
		t.Fatalf("plans hold %d steps: %d boots of new slots, %d reconfigurations, %d retirements of trailing slots, "+
			"%d replaced slots; want every kind and at least %d steps", total, boots, reconfigures, trailing, replaced, minSteps)
	}
}

// TestCrashResumeProperty is the crash-safety property test: for every
// crash point i of a journaled apply, killing the apply after step i-1's
// record and resuming from the recovered journal must land on exactly the
// state an uninterrupted apply reaches, executing every step's effect
// exactly once across both legs; the resumed apply reports every step and
// leaves the plan committed in the journal. The links' plans boot,
// reconfigure, replace and retire brokers.
func TestCrashResumeProperty(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 2; seed++ {
		// Chained links exercise resume from the empty base and from
		// populated ones.
		links := crashLinks(t, seed, seed+100)
		assertStepMix(t, links, 20)
		for ci, link := range links {
			cfg := link.cfg
			// The uninterrupted apply's destination is the oracle.
			wantFP := link.plan.TargetFingerprint()
			steps := len(link.plan.Steps)
			for i := 0; i < steps; i++ {
				name := fmt.Sprintf("seed=%d/link=%d/crash=%d", seed, ci, i)
				path := journalPath(t)
				effects := deploy.NewEffectLog()

				j, err := traceio.OpenJournal(path, deploy.JournalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				snap, err := deploy.Snapshot(cfg, link.base)
				if err != nil {
					t.Fatal(err)
				}
				if err := j.AppendSnapshot(-1, snap); err != nil {
					t.Fatal(err)
				}
				prov, err := link.base.Provisioner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				crashExec := deploy.NewFaultInjector(deploy.NopExecutor, deploy.FaultConfig{
					Crash: true, CrashAtStep: i, Effects: effects,
				})
				_, aerr := deploy.Apply(ctx, link.plan, prov,
					deploy.WithJournal(j), deploy.WithExecutor(crashExec), deploy.WithApplyEpoch(ci))
				if !errors.Is(aerr, deploy.ErrSimulatedCrash) {
					t.Fatalf("%s: want simulated crash, got %v", name, aerr)
				}
				j.Close()

				rec, err := traceio.RecoverJournal(path)
				if err != nil {
					t.Fatalf("%s: recover: %v", name, err)
				}
				if rec.InFlight == nil || rec.NextStep != i {
					t.Fatalf("%s: recovery next=%d inflight=%v, want resume at %d",
						name, rec.NextStep, rec.InFlight != nil, i)
				}
				prov2, err := rec.State.Provisioner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				j2, err := traceio.OpenJournal(path, deploy.JournalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				resumeExec := deploy.NewFaultInjector(deploy.NopExecutor, deploy.FaultConfig{Effects: effects})
				rep, err := deploy.Apply(ctx, rec.InFlight, prov2,
					deploy.WithJournal(j2), deploy.WithExecutor(resumeExec),
					deploy.WithApplyEpoch(ci), deploy.ResumeFrom(rec.NextStep))
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				if err := j2.Close(); err != nil {
					t.Fatal(err)
				}
				if rep.StepsApplied != steps {
					t.Fatalf("%s: resume reports %d steps applied, want the plan's %d", name, rep.StepsApplied, steps)
				}
				if final, err := traceio.RecoverJournal(path); err != nil || final.InFlight != nil {
					t.Fatalf("%s: journal after resume: in-flight %v, err %v; want the plan committed",
						name, final != nil && final.InFlight != nil, err)
				}

				if got := deploy.StateOf(prov2).Fingerprint(); got != wantFP {
					t.Fatalf("%s: resumed to %s, uninterrupted apply reaches %s", name, got, wantFP)
				}
				for s := 0; s < steps; s++ {
					if n := effects.Executions(s); n != 1 {
						t.Fatalf("%s: step %d effect executed %d times", name, s, n)
					}
				}
				if err := core.VerifyServes(link.plan.Target.Workload, prov2.Allocation(), cfg); err != nil {
					t.Fatalf("%s: verify: %v", name, err)
				}
			}
		}
	}
}

// TestChaosApplySweep is the in-repo edition of `simulate -chaos-apply`:
// 200 seeded cases mixing transient step failures with mid-apply crashes,
// all of which must recover to the exact target with exactly-once effects.
// The links' plans boot, reconfigure, replace and retire brokers.
func TestChaosApplySweep(t *testing.T) {
	ctx := context.Background()
	links := crashLinks(t, 21, 22)
	assertStepMix(t, links, 20)

	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	noSleep := func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	crashes := 0
	for c := 0; c < 200; c++ {
		link := links[rng.Intn(len(links))]
		cfg := link.cfg
		steps := len(link.plan.Steps)
		k := rng.Intn(steps + 1) // == steps: no crash, transient faults only
		crash := k < steps
		path := filepath.Join(dir, fmt.Sprintf("case-%d.journal", c))
		effects := deploy.NewEffectLog()
		seed := int64(c)*7919 + 1

		mkExec := func(seed int64, crash bool) deploy.Executor {
			inj := deploy.NewFaultInjector(deploy.NopExecutor, deploy.FaultConfig{
				FailProb: 0.2, Crash: crash, CrashAtStep: k, Seed: seed, Effects: effects,
			})
			return deploy.NewRetryExecutor(inj, deploy.RetryConfig{MaxAttempts: 8, Seed: seed, Sleep: noSleep})
		}

		j, err := traceio.OpenJournal(path, deploy.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := deploy.Snapshot(cfg, link.base)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AppendSnapshot(-1, snap); err != nil {
			t.Fatal(err)
		}
		prov, err := link.base.Provisioner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, aerr := deploy.Apply(ctx, link.plan, prov,
			deploy.WithJournal(j), deploy.WithExecutor(mkExec(seed, crash)))
		if crash {
			crashes++
			if !errors.Is(aerr, deploy.ErrSimulatedCrash) {
				t.Fatalf("case %d: want crash, got %v", c, aerr)
			}
			j.Close()
			rec, err := traceio.RecoverJournal(path)
			if err != nil {
				t.Fatalf("case %d: recover: %v", c, err)
			}
			prov, err = rec.State.Provisioner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			j, err = traceio.OpenJournal(path, deploy.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, aerr = deploy.Apply(ctx, rec.InFlight, prov,
				deploy.WithJournal(j), deploy.WithExecutor(mkExec(seed+1, false)),
				deploy.ResumeFrom(rec.NextStep))
		}
		if aerr != nil {
			t.Fatalf("case %d: apply: %v", c, aerr)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := deploy.StateOf(prov).Fingerprint(), link.plan.TargetFingerprint(); got != want {
			t.Fatalf("case %d: verify failure — landed on %s, want %s", c, got, want)
		}
		if effects.MaxPerStep() > 1 {
			t.Fatalf("case %d: duplicate step effect (max %d)", c, effects.MaxPerStep())
		}
		if effects.Total() != steps {
			t.Fatalf("case %d: %d effects for %d steps", c, effects.Total(), steps)
		}
	}
	if crashes < 150 {
		t.Fatalf("only %d of 200 cases crashed mid-plan", crashes)
	}
}

// BenchmarkJournalReplay measures recovery time as a function of journal
// length — the numbers EXPERIMENTS.md quotes for the recovery section.
func BenchmarkJournalReplay(b *testing.B) {
	cfg := jcfg()
	ctx := context.Background()
	w1 := jworkload(b, 21)
	w2 := jworkload(b, 22)
	boot, err := deploy.SolvePlan(ctx, cfg, w1, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Two plans ping-ponging between the same two states let the journal
	// grow to any length while keeping the fingerprint chain valid.
	forward, err := deploy.SolvePlan(ctx, cfg, w2, boot.Target)
	if err != nil {
		b.Fatal(err)
	}
	backward, err := deploy.NewPlan(cfg, forward.Target, boot.Target)
	if err != nil {
		b.Fatal(err)
	}

	for _, plans := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("plans=%d", plans), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "apply.journal")
			j, err := traceio.OpenJournal(path, deploy.JournalOptions{SyncEvery: 64})
			if err != nil {
				b.Fatal(err)
			}
			snap, err := deploy.Snapshot(cfg, boot.Target)
			if err != nil {
				b.Fatal(err)
			}
			if err := j.AppendSnapshot(-1, snap); err != nil {
				b.Fatal(err)
			}
			records := 1
			for p := 0; p < plans; p++ {
				plan := forward
				if p%2 == 1 {
					plan = backward
				}
				if err := j.AppendPlanBegin(int64(p), plan); err != nil {
					b.Fatal(err)
				}
				for s := range plan.Steps {
					if err := j.AppendStepDone(int64(p), s); err != nil {
						b.Fatal(err)
					}
				}
				if err := j.AppendPlanCommit(int64(p), plan.TargetFingerprint()); err != nil {
					b.Fatal(err)
				}
				records += 2 + len(plan.Steps)
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportMetric(float64(records), "records")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, torn, err := deploy.ReadJournal(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				rec, err := deploy.Recover(recs, torn, traceio.PlanJournalCodec())
				if err != nil {
					b.Fatal(err)
				}
				if rec.Committed != plans {
					b.Fatalf("recovered %d commits, want %d", rec.Committed, plans)
				}
			}
		})
	}
}

// TestPlanRefusesRepeatedSubscriber: a target placement or a step that
// lists a subscriber twice is an invalid plan. NewPlan refuses it, Apply
// refuses it before writing any journal record, and ReadPlan refuses a
// plan file holding one. Applied, such a target places a pair twice:
// VerifyAllocation then counts one pair instance more than the selection
// has, and the next incremental update finds the pair placed twice.
func TestPlanRefusesRepeatedSubscriber(t *testing.T) {
	w, cfg, err := experiments.ChurnSetup(2000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := deploy.NewState(w, res.Allocation).Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The target repeats the first subscriber of one placement, with the
	// accounting to match.
	dup := &core.Allocation{MessageBytes: res.Allocation.MessageBytes, Fleet: res.Allocation.Fleet}
	for _, vm := range res.Allocation.VMs {
		cp := *vm
		cp.Placements = slices.Clone(vm.Placements)
		dup.VMs = append(dup.VMs, &cp)
	}
	vm := dup.VMs[0]
	pl := &vm.Placements[0]
	v := pl.Subs[0]
	pl.Subs = append(slices.Clone(pl.Subs), v)
	vm.OutBytesPerHour += w.Rate(pl.Topic) * cfg.MessageBytes
	target := deploy.NewState(w, dup)

	if _, err := deploy.NewPlan(cfg, deploy.StateOf(prov), target); !errors.Is(err, deploy.ErrInvalidPlan) {
		t.Fatalf("NewPlan: got %v, want ErrInvalidPlan", err)
	}

	// By hand: the base state's snapshot retargeted, with a place step
	// that adds the repeat.
	plan, err := deploy.Snapshot(cfg, deploy.StateOf(prov))
	if err != nil {
		t.Fatal(err)
	}
	plan.Target = target
	plan.Steps = []dynamic.Step{{Op: dynamic.OpReconfigure, VM: 0, Place: []core.TopicPlacement{{Topic: pl.Topic, Subs: []workload.SubID{v}}}}}
	path := journalPath(t)
	j, err := traceio.OpenJournal(path, deploy.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.Apply(context.Background(), plan, prov, deploy.WithJournal(j)); !errors.Is(err, deploy.ErrInvalidPlan) {
		t.Fatalf("Apply: got %v, want ErrInvalidPlan", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := deploy.ReadJournalFile(path); err != nil || len(recs) != 0 {
		t.Fatalf("refused apply left %d journal records (%v)", len(recs), err)
	}

	// A plan file whose target, or one of whose steps, repeats a
	// subscriber.
	snap, err := deploy.Snapshot(cfg, deploy.StateOf(prov))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := traceio.WritePlan(snap, &buf); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(doc map[string]any){
		"target placement": func(doc map[string]any) {
			p := doc["target"].(map[string]any)["allocation"].([]any)[0].(map[string]any)["placements"].([]any)[0].(map[string]any)
			p["subs"] = append(p["subs"].([]any), p["subs"].([]any)[0])
		},
		"reconfigure step": func(doc map[string]any) {
			doc["steps"] = []any{map[string]any{"op": "reconfigure", "vm": 0,
				"place": []any{map[string]any{"topic": 0, "subs": []any{3, 1, 3}}}}}
		},
		"version 1 place step": func(doc map[string]any) {
			doc["version"] = 1
			doc["steps"] = []any{map[string]any{"op": "place", "vm": 0, "topic": 0, "subs": []any{3, 1, 3}}}
		},
	} {
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		edit(doc)
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := traceio.ReadPlan(bytes.NewReader(b)); !errors.Is(err, deploy.ErrInvalidPlan) {
			t.Errorf("%s: ReadPlan got %v, want ErrInvalidPlan", name, err)
		}
	}
}
