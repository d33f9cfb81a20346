package deploy_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/traceio"
)

// laneSetup is a deployed churn workload: the base state every case
// starts from and the config it was solved under.
type laneSetup struct {
	cfg  core.Config
	base *deploy.State
}

func newLaneSetup(t *testing.T) laneSetup {
	t.Helper()
	w, cfg, err := experiments.ChurnSetup(5000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return laneSetup{cfg: cfg, base: deploy.NewState(w, res.Allocation)}
}

// epoch returns a provisioner on the base state and the plan of one 1%
// churn epoch on it, planned from the provisioner's own state the way a
// steady-state op plans, so Apply may reuse the plan's Diff.Stats.
func (s laneSetup) epoch(t *testing.T) (*dynamic.Provisioner, *deploy.Plan) {
	t.Helper()
	return s.epochWith(t, 3)
}

// epochWith is epoch with the churn delta drawn from seed.
func (s laneSetup) epochWith(t *testing.T, seed int64) (*dynamic.Provisioner, *deploy.Plan) {
	t.Helper()
	prov, err := s.base.Provisioner(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := experiments.ChurnDelta(rand.New(rand.NewSource(seed)), s.base.Workload, 0.01)
	plan, err := deploy.PreviewPlan(context.Background(), s.cfg, prov, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) < 4 {
		t.Fatalf("churn epoch has %d steps, need at least 4", len(plan.Steps))
	}
	return prov, plan
}

// laneWork names a function of Apply's lane that some goroutine is
// still running, or returns "" when none is.
func laneWork() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, fn := range []string{"deploy.(*Plan).realizedStats(", "dynamic.MigrationStatsBetween(",
		"deploy.(*Plan).TargetFingerprint(", "dynamic.StateFingerprint(", "core.PlacedSelection(", "core.(*Allocation).PairRows("} {
		if bytes.Contains(buf, []byte(fn)) {
			return fn
		}
	}
	return ""
}

// settled reports whether the goroutine count falls back to n; a goroutine
// may take a moment to exit after its last action.
func settled(n int) bool {
	for range 200 {
		if runtime.NumGoroutine() <= n {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestApplyLaneExitPaths drives Apply, journaled and not, through every
// way it returns. On each it checks that no goroutine outlives Apply: no
// goroutine is still in the lane's work when Apply returns (an unjournaled
// abort at step 0 returns long before the lane could finish unjoined), and
// the goroutine count settles back. It also checks that a commit record
// carries plan.TargetFingerprint(), and that a report's Stats equal a
// fresh MigrationStatsBetween of the pre-state and the target.
func TestApplyLaneExitPaths(t *testing.T) {
	s := newLaneSetup(t)
	ctx := context.Background()
	type outcome struct {
		rep  *deploy.Report
		err  error
		pre  *core.Allocation
		plan *deploy.Plan
	}
	cases := []struct {
		name    string
		run     func(t *testing.T, j *deploy.Journal, path string) outcome
		wantErr error // nil: success
		commits bool
	}{
		{name: "success", commits: true, run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, plan := s.epoch(t)
			pre := prov.Allocation()
			rep, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j))
			return outcome{rep, err, pre, plan}
		}},
		{name: "dry run", run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, plan := s.epoch(t)
			pre := prov.Allocation()
			rep, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j), deploy.DryRun())
			return outcome{rep, err, pre, plan}
		}},
		{name: "zero-step snapshot", commits: true, run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, _ := s.epoch(t)
			snap, err := deploy.Snapshot(s.cfg, deploy.StateOf(prov))
			if err != nil {
				t.Fatal(err)
			}
			pre := prov.Allocation()
			rep, err := deploy.Apply(ctx, snap, prov, deploy.WithJournal(j))
			return outcome{rep, err, pre, snap}
		}},
		{name: "stale plan", wantErr: deploy.ErrStalePlan, run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, plan := s.epoch(t)
			plan.BaseFingerprint = "0000000000000000"
			_, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j))
			return outcome{nil, err, prov.Allocation(), plan}
		}},
		{name: "invalid plan", wantErr: deploy.ErrInvalidPlan, run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, plan := s.epoch(t)
			plan.Steps = plan.Steps[:len(plan.Steps)-1]
			_, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j))
			return outcome{nil, err, prov.Allocation(), plan}
		}},
		{name: "observer abort", wantErr: deploy.ErrAborted, run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, plan := s.epoch(t)
			_, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j),
				deploy.WithObserver(func(i, _ int, _ dynamic.Step) error {
					if i == 0 {
						return errors.New("operator said no")
					}
					return nil
				}))
			return outcome{nil, err, prov.Allocation(), plan}
		}},
		{name: "permanent step failure", wantErr: deploy.ErrStepFailed, run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, plan := s.epoch(t)
			_, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j),
				deploy.WithExecutor(deploy.ExecutorFunc(func(_ context.Context, i, _ int, _ dynamic.Step) error {
					if i == 1 {
						return errors.New("instance type retired")
					}
					return nil
				})))
			return outcome{nil, err, prov.Allocation(), plan}
		}},
		{name: "context cancelled mid-loop", wantErr: context.Canceled, run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, plan := s.epoch(t)
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			_, err := deploy.Apply(cctx, plan, prov, deploy.WithJournal(j),
				deploy.WithObserver(func(i, _ int, _ dynamic.Step) error {
					if i == 1 {
						cancel()
					}
					return nil
				}))
			return outcome{nil, err, prov.Allocation(), plan}
		}},
		{name: "simulated crash", wantErr: deploy.ErrSimulatedCrash, run: func(t *testing.T, j *deploy.Journal, _ string) outcome {
			prov, plan := s.epoch(t)
			crash := deploy.NewFaultInjector(deploy.NopExecutor, deploy.FaultConfig{Crash: true, CrashAtStep: 2})
			_, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j), deploy.WithExecutor(crash))
			return outcome{nil, err, prov.Allocation(), plan}
		}},
		{name: "resume", commits: true, run: func(t *testing.T, j *deploy.Journal, path string) outcome {
			if j == nil {
				t.Skip("resuming needs a journal")
			}
			prov, plan := s.epoch(t)
			crash := deploy.NewFaultInjector(deploy.NopExecutor, deploy.FaultConfig{Crash: true, CrashAtStep: 2})
			if _, err := deploy.Apply(ctx, plan, prov, deploy.WithJournal(j), deploy.WithExecutor(crash)); !errors.Is(err, deploy.ErrSimulatedCrash) {
				t.Fatalf("crash leg: %v", err)
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			rec, err := traceio.RecoverJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if rec.InFlight == nil || rec.NextStep != 2 {
				t.Fatalf("recovery next=%d inflight=%v, want resume at 2", rec.NextStep, rec.InFlight != nil)
			}
			if got, want := rec.InFlight.TargetFingerprint(), plan.TargetFingerprint(); got != want {
				t.Fatalf("recovered plan targets %s, journaled plan %s", got, want)
			}
			prov2, err := rec.State.Provisioner(s.cfg)
			if err != nil {
				t.Fatal(err)
			}
			pre := prov2.Allocation()
			rep, err := deploy.Apply(ctx, rec.InFlight, prov2, deploy.WithJournal(j), deploy.ResumeFrom(rec.NextStep))
			return outcome{rep, err, pre, rec.InFlight}
		}},
	}
	for _, journaled := range []bool{true, false} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/journaled=%v", tc.name, journaled), func(t *testing.T) {
				var j *deploy.Journal
				path := journalPath(t)
				if journaled {
					var err error
					if j, err = traceio.OpenJournal(path, deploy.JournalOptions{}); err != nil {
						t.Fatal(err)
					}
					defer j.Close()
				}
				before := runtime.NumGoroutine()
				out := tc.run(t, j, path)
				if fn := laneWork(); fn != "" {
					t.Errorf("a goroutine is still in %s after Apply returned", fn)
				}
				if !settled(before) {
					t.Errorf("%d goroutines after Apply, %d before", runtime.NumGoroutine(), before)
				}
				if !errors.Is(out.err, tc.wantErr) {
					t.Fatalf("Apply returned %v, want %v", out.err, tc.wantErr)
				}
				if out.rep != nil {
					want := dynamic.MigrationStatsBetween(out.pre, out.plan.Target.Allocation, out.plan.Model)
					if out.rep.Stats != want {
						t.Errorf("report stats %+v, recomputed %+v", out.rep.Stats, want)
					}
				}
				if !journaled {
					return
				}
				if err := j.Sync(); err != nil {
					t.Fatal(err)
				}
				recs, _, err := deploy.ReadJournalFile(path)
				if err != nil {
					t.Fatal(err)
				}
				commits := 0
				for _, r := range recs {
					if r.Type == deploy.RecPlanCommit {
						commits++
						if r.Fingerprint != out.plan.TargetFingerprint() {
							t.Errorf("commit record carries %s, plan target is %s", r.Fingerprint, out.plan.TargetFingerprint())
						}
					}
				}
				if want := map[bool]int{true: 1}[tc.commits]; commits != want {
					t.Errorf("journal holds %d commit records, want %d", commits, want)
				}
			})
		}
	}
}

// TestApplyStatsReuse: a steady-state plan's Diff.Stats equal the churn
// Apply realizes, and Apply reports the true churn for a plan whose
// Diff.Stats were edited, that was decoded from a plan file with edited
// stats, that is applied to another copy of its base state, that was
// given another target, whose target's accounting is stale, or whose
// model was edited.
func TestApplyStatsReuse(t *testing.T) {
	s := newLaneSetup(t)
	ctx := context.Background()
	truth := func(prov *dynamic.Provisioner, plan *deploy.Plan) dynamic.MigrationStats {
		return dynamic.MigrationStatsBetween(prov.Allocation(), plan.Target.Allocation, plan.Model)
	}
	edit := func(st *dynamic.MigrationStats) {
		st.PairsMoved += 1000
		st.PairsKept -= 7
		st.CostAfter++
	}

	t.Run("as planned", func(t *testing.T) {
		prov, plan := s.epoch(t)
		want := truth(prov, plan)
		if plan.Diff.Stats != want {
			t.Fatalf("plan stats %+v, recomputed %+v", plan.Diff.Stats, want)
		}
		rep, err := deploy.Apply(ctx, plan, prov)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want {
			t.Fatalf("report stats %+v, recomputed %+v", rep.Stats, want)
		}
	})
	t.Run("edited stats", func(t *testing.T) {
		prov, plan := s.epoch(t)
		want := truth(prov, plan)
		edit(&plan.Diff.Stats)
		rep, err := deploy.Apply(ctx, plan, prov)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want {
			t.Fatalf("report stats %+v, true churn %+v", rep.Stats, want)
		}
	})
	t.Run("decoded from a plan file", func(t *testing.T) {
		prov, plan := s.epoch(t)
		want := truth(prov, plan)
		var buf strings.Builder
		if err := traceio.WritePlan(plan, &buf); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
			t.Fatal(err)
		}
		diff := doc["diff"].(map[string]any)
		diff["pairs_moved"] = want.PairsMoved + 1000
		diff["pairs_kept"] = max(want.PairsKept-7, 0)
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		read, err := traceio.ReadPlan(strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		if read.Diff.Stats == want {
			t.Fatal("edited plan file kept the true stats")
		}
		rep, err := deploy.Apply(ctx, read, prov)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want {
			t.Fatalf("report stats %+v, true churn %+v", rep.Stats, want)
		}
	})
	t.Run("applied to a copy of the base", func(t *testing.T) {
		// Accounting is not fingerprinted: a copy of the base whose first
		// VM accounts more bandwidth passes the stale check but costs more.
		_, plan := s.epoch(t)
		cp := &core.Allocation{MessageBytes: s.base.Allocation.MessageBytes, Fleet: s.base.Allocation.Fleet}
		for _, vm := range s.base.Allocation.VMs {
			v := *vm
			cp.VMs = append(cp.VMs, &v)
		}
		cp.VMs[0].OutBytesPerHour += 1 << 30
		prov, err := deploy.NewState(s.base.Workload, cp).Provisioner(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := truth(prov, plan)
		if want == plan.Diff.Stats {
			t.Fatal("the copy's churn equals the plan's")
		}
		rep, err := deploy.Apply(ctx, plan, prov)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want {
			t.Fatalf("report stats %+v, churn from the copy %+v", rep.Stats, want)
		}
	})
	t.Run("retargeted plan", func(t *testing.T) {
		// Another epoch's target and steps under this plan's stats.
		prov, plan := s.epoch(t)
		_, other := s.epochWith(t, 4)
		plan.Target, plan.Steps, plan.Diff.Delta = other.Target, other.Steps, other.Diff.Delta
		want := truth(prov, plan)
		if want == plan.Diff.Stats {
			t.Fatal("the two epochs have the same churn")
		}
		rep, err := deploy.Apply(ctx, plan, prov)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want {
			t.Fatalf("report stats %+v, true churn %+v", rep.Stats, want)
		}
	})
	t.Run("target with stale accounting", func(t *testing.T) {
		// NewPlan priced a target whose first VM over-accounts; Apply
		// adopts the replay, and reports the churn to it.
		prov, plan := s.epoch(t)
		pre := prov.Allocation()
		stale := &core.Allocation{MessageBytes: plan.Target.Allocation.MessageBytes, Fleet: plan.Target.Allocation.Fleet}
		for _, vm := range plan.Target.Allocation.VMs {
			v := *vm
			stale.VMs = append(stale.VMs, &v)
		}
		stale.VMs[0].OutBytesPerHour += 1 << 30
		plan, err := deploy.NewPlan(s.cfg, deploy.StateOf(prov), deploy.NewState(plan.Target.Workload, stale))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := deploy.Apply(ctx, plan, prov)
		if err != nil {
			t.Fatal(err)
		}
		if prov.Allocation() == stale {
			t.Fatal("Apply adopted the target with stale accounting")
		}
		if want := dynamic.MigrationStatsBetween(pre, prov.Allocation(), plan.Model); rep.Stats != want {
			t.Fatalf("report stats %+v, churn to the adopted replay %+v", rep.Stats, want)
		}
	})
	t.Run("model edited after planning", func(t *testing.T) {
		prov, plan := s.epoch(t)
		plan.Model.Hours *= 2
		want := truth(prov, plan)
		rep, err := deploy.Apply(ctx, plan, prov)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want {
			t.Fatalf("report stats %+v, repriced churn %+v", rep.Stats, want)
		}
	})
}
