package traceio

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// goldenPlan builds the deterministic plan committed as testdata: a small
// hand-built workload solved on a calibrated c3.large/c3.xlarge fleet,
// planned from the empty cluster.
func workloadForGolden(t testing.TB) *workload.Workload {
	t.Helper()
	b := workload.NewBuilder().
		AddTopic("hot", 120).
		AddTopic("warm", 40).
		AddTopic("cold", 6)
	for _, sub := range []struct {
		name   string
		topics []string
	}{
		{"ana", []string{"hot", "warm"}},
		{"bo", []string{"hot"}},
		{"cy", []string{"hot", "cold"}},
		{"di", []string{"warm", "cold"}},
		{"ed", []string{"hot", "warm", "cold"}},
	} {
		for _, tp := range sub.topics {
			b.AddSubscription(sub.name, tp)
		}
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// solvePlan solves w under cfg and plans the move from current (nil = the
// empty cluster) to the solved allocation, as the mcss Planner's Plan does.
func solvePlan(ctx context.Context, cfg core.Config, w *workload.Workload, current *deploy.State) (*deploy.Plan, error) {
	res, err := core.SolveContext(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	return deploy.NewPlan(cfg, current, deploy.NewState(w, res.Allocation))
}

func goldenPlan(t testing.TB) *deploy.Plan {
	t.Helper()
	w := workloadForGolden(t)
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 100_000
	cfg := core.DefaultConfig(40, model)
	fleet, err := pricing.NewFleet(pricing.C3Large, pricing.C3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet = fleet.WithBytesPerMbps(model.CapacityBytesPerHour() / pricing.C3Large.LinkMbps)
	plan, err := solvePlan(context.Background(), cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPlanGolden pins the v2 wire format: the serialized golden plan must
// match the committed testdata byte for byte. Regenerate deliberately with
// UPDATE_GOLDEN=1 go test ./internal/traceio -run TestPlanGolden
// and review the diff — an unintended change here is a format break.
func TestPlanGolden(t *testing.T) {
	plan := goldenPlan(t)
	var buf bytes.Buffer
	if err := WritePlan(plan, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "plan_v2.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("serialized plan differs from %s;\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	// The committed bytes parse back into a plan equal in every field the
	// lifecycle depends on.
	back, err := ReadPlan(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEquivalent(t, plan, back)
}

func assertPlansEquivalent(t *testing.T, a, b *deploy.Plan) {
	t.Helper()
	if a.BaseFingerprint != b.BaseFingerprint {
		t.Fatalf("base fingerprint %s != %s", a.BaseFingerprint, b.BaseFingerprint)
	}
	if a.TargetFingerprint() != b.TargetFingerprint() {
		t.Fatalf("target fingerprint %s != %s", a.TargetFingerprint(), b.TargetFingerprint())
	}
	if a.Tau != b.Tau || a.MessageBytes != b.MessageBytes {
		t.Fatalf("τ/msg %d/%d != %d/%d", a.Tau, a.MessageBytes, b.Tau, b.MessageBytes)
	}
	if a.CostBefore != b.CostBefore || a.CostAfter != b.CostAfter {
		t.Fatalf("costs %v/%v != %v/%v", a.CostBefore, a.CostAfter, b.CostBefore, b.CostAfter)
	}
	if a.Model != b.Model {
		t.Fatalf("model %+v != %+v", a.Model, b.Model)
	}
	if a.Fleet.String() != b.Fleet.String() || a.Fleet.MaxCapacity() != b.Fleet.MaxCapacity() {
		t.Fatalf("fleet %v != %v", a.Fleet, b.Fleet)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%d steps != %d", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		as, bs := a.Steps[i], b.Steps[i]
		if as.Op != bs.Op || as.VM != bs.VM || as.Instance != bs.Instance || as.Capacity != bs.Capacity ||
			!sameEdits(as.Remove, bs.Remove) || !sameEdits(as.Place, bs.Place) {
			t.Fatalf("step %d: %v != %v", i, as, bs)
		}
	}
	if a.Target.Allocation.Cost(a.Model) != b.Target.Allocation.Cost(b.Model) {
		t.Fatal("target costs differ after round trip")
	}
}

// sameEdits reports whether two step edit lists name the same topics and
// subscribers in the same order.
func sameEdits(a, b []core.TopicPlacement) bool {
	return slices.EqualFunc(a, b, func(p, q core.TopicPlacement) bool {
		return p.Topic == q.Topic && slices.Equal(p.Subs, q.Subs)
	})
}

// TestPlanV1Decodes: the committed version-1 plan file, written when a
// step placed or removed one topic's subscribers, still reads. Its 5 steps
// keep their count and order (two boots, then each place as a reconfigure
// step with that one placement), the plan validates as the current
// version, and it applies from the empty cluster to the golden target.
func TestPlanV1Decodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "plan_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"version": 1,`)) || !bytes.Contains(raw, []byte(`"op": "place"`)) {
		t.Fatal("plan_v1.json is not a version-1 plan with place steps")
	}
	plan, err := ReadPlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Version != deploy.PlanVersion {
		t.Fatalf("decoded version %d, want the current %d", plan.Version, deploy.PlanVersion)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []dynamic.Step{
		{Op: dynamic.OpBootVM, VM: 0, Instance: pricing.C3Large, Capacity: 99968},
		{Op: dynamic.OpBootVM, VM: 1, Instance: pricing.C3Large, Capacity: 99968},
		{Op: dynamic.OpReconfigure, VM: 0, Place: []core.TopicPlacement{{Topic: 0, Subs: []workload.SubID{1, 2}}}},
		{Op: dynamic.OpReconfigure, VM: 1, Place: []core.TopicPlacement{{Topic: 1, Subs: []workload.SubID{0, 3, 4}}}},
		{Op: dynamic.OpReconfigure, VM: 1, Place: []core.TopicPlacement{{Topic: 2, Subs: []workload.SubID{2}}}},
	}
	if len(plan.Steps) != len(want) {
		t.Fatalf("%d steps, want %d", len(plan.Steps), len(want))
	}
	for i, s := range plan.Steps {
		w := want[i]
		if s.Op != w.Op || s.VM != w.VM || s.Instance.Name != w.Instance.Name || s.Capacity != w.Capacity ||
			!sameEdits(s.Remove, w.Remove) || !sameEdits(s.Place, w.Place) {
			t.Fatalf("step %d is %v, want %v", i, s, w)
		}
	}
	golden := goldenPlan(t)
	if got, want := plan.TargetFingerprint(), golden.TargetFingerprint(); got != want {
		t.Fatalf("v1 target fingerprint %s, golden target %s", got, want)
	}
	cfg := core.DefaultConfig(plan.Tau, plan.Model)
	cfg.Fleet = plan.Fleet
	prov, err := deploy.EmptyState().Provisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := deploy.Apply(context.Background(), plan, prov)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StepsApplied != 5 {
		t.Fatalf("applied %d steps, want 5", rep.StepsApplied)
	}
	if got := dynamic.StateFingerprint(prov.Workload(), prov.Allocation()); got != golden.TargetFingerprint() {
		t.Fatalf("applied fingerprint %s, golden target %s", got, golden.TargetFingerprint())
	}
}

// TestPlanRoundTripAndApply: a plan survives save/load (including .gz) and
// the loaded plan still applies, landing on the same fingerprint and cost.
func TestPlanRoundTripAndApply(t *testing.T) {
	plan := goldenPlan(t)
	dir := t.TempDir()
	for _, name := range []string{"plan.json", "plan.json.gz"} {
		path := filepath.Join(dir, name)
		if err := SavePlan(plan, path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadPlan(path)
		if err != nil {
			t.Fatal(err)
		}
		assertPlansEquivalent(t, plan, back)

		cfg := core.DefaultConfig(back.Tau, back.Model)
		cfg.Fleet = back.Fleet
		prov, err := deploy.EmptyState().Provisioner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := deploy.Apply(context.Background(), back, prov)
		if err != nil {
			t.Fatalf("%s: apply loaded plan: %v", name, err)
		}
		if rep.Cost != plan.CostAfter {
			t.Fatalf("%s: applied cost %v != forecast %v", name, rep.Cost, plan.CostAfter)
		}
		if got := dynamic.StateFingerprint(prov.Workload(), prov.Allocation()); got != plan.TargetFingerprint() {
			t.Fatalf("%s: applied fingerprint %s != target %s", name, got, plan.TargetFingerprint())
		}
	}
}

// TestReadPlanRejects: malformed bytes fail with ErrBadFormat; documents
// that parse but describe unusable plans fail with deploy.ErrInvalidPlan.
func TestReadPlanRejects(t *testing.T) {
	badFormat := []string{
		"",
		"garbage",
		`{"format":"mcss-trace"}`,
		`{"format":"something-else","version":1}`,
		`{`,
	}
	for _, in := range badFormat {
		if _, err := ReadPlan(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("ReadPlan(%q) = %v, want ErrBadFormat", in, err)
		}
	}
	var buf bytes.Buffer
	if err := WritePlan(goldenPlan(t), &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	invalid := []struct {
		name string
		doc  string
	}{
		{"wrong version", strings.Replace(good, `"version": 2`, `"version": 7`, 1)},
		{"version-1 op in a version-2 plan", strings.Replace(good, `"op": "boot-vm"`, `"op": "place"`, 1)},
		{"version-1 fields in a version-2 step", strings.Replace(good, `"vm": 0,`, `"vm": 0, "topic": 0, "subs": [1],`, 1)},
		{"version-2 op in a version-1 plan", strings.Replace(good, `"version": 2`, `"version": 1`, 1)},
		{"no fingerprint", strings.Replace(good, `"base_fingerprint": "`+deploy.EmptyState().Fingerprint()+`"`, `"base_fingerprint": ""`, 1)},
		{"negative tau", strings.Replace(good, `"tau": 40`, `"tau": -1`, 1)},
		{"minimal but empty", `{"format":"mcss-plan","version":1}`},
		{"bad CSR", `{"format":"mcss-plan","version":1,"base_fingerprint":"x","tau":1,"message_bytes":1,` +
			`"target":{"workload":{"rates":[1],"sub_offsets":[0,5],"sub_topics":[0]},"allocation":[]}}`},
		{"topic id overflow", `{"format":"mcss-plan","version":1,"base_fingerprint":"x","tau":1,"message_bytes":1,` +
			`"target":{"workload":{"rates":[1],"sub_offsets":[0,1],"sub_topics":[99999999999]},"allocation":[]}}`},
		{"zero-capacity target vm", `{"format":"mcss-plan","version":1,"base_fingerprint":"x","tau":1,"message_bytes":1,` +
			`"target":{"workload":{"rates":[1],"sub_offsets":[0,1],"sub_topics":[0]},"allocation":` +
			`[{"instance":{"name":"c3.large","hourly_rate":"0.15","link_mbps":64},"capacity_bytes_per_hour":0}]}}`},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPlan(strings.NewReader(tc.doc)); !errors.Is(err, deploy.ErrInvalidPlan) {
				t.Fatalf("got %v, want deploy.ErrInvalidPlan", err)
			}
		})
	}
}

// TestWritePlanRejectsInvalid mirrors the timeline codec's symmetric
// contract: a structurally invalid plan is refused before any byte is
// written, with the same sentinel the reader uses.
func TestWritePlanRejectsInvalid(t *testing.T) {
	plan := goldenPlan(t)
	plan.Version = 9
	var buf bytes.Buffer
	if err := WritePlan(plan, &buf); !errors.Is(err, deploy.ErrInvalidPlan) {
		t.Fatalf("got %v, want deploy.ErrInvalidPlan", err)
	}
	if buf.Len() != 0 {
		t.Fatal("invalid plan left bytes in the writer")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := SavePlan(plan, path); !errors.Is(err, deploy.ErrInvalidPlan) {
		t.Fatalf("SavePlan: got %v, want deploy.ErrInvalidPlan", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("SavePlan created a file for an invalid plan")
	}
}

// TestPlanRoundTripRegions: a plan computed on a region-tagged workload
// against a regionalized fleet keeps the whole geography through the wire —
// per-topic and per-subscriber region indices on the workload, and the
// region tag on every deployed instance type.
func TestPlanRoundTripRegions(t *testing.T) {
	net := core.SyntheticTopology(2)
	base := workloadForGolden(t)
	w, err := base.WithRegions(
		[]int32{0, 1, 0},       // hot, warm, cold publishers
		[]int32{0, 1, 1, 0, 1}, // ana, bo, cy, di, ed
	)
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
	plan, err := solvePlan(context.Background(), cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WritePlan(plan, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEquivalent(t, plan, back)

	bw := back.Target.Workload
	if !bw.HasRegions() {
		t.Fatal("region tags dropped on the wire")
	}
	for tp := 0; tp < w.NumTopics(); tp++ {
		if bw.TopicRegion(workload.TopicID(tp)) != w.TopicRegion(workload.TopicID(tp)) {
			t.Fatalf("topic %d region changed", tp)
		}
	}
	for v := 0; v < w.NumSubscribers(); v++ {
		if bw.SubscriberRegion(workload.SubID(v)) != w.SubscriberRegion(workload.SubID(v)) {
			t.Fatalf("subscriber %d region changed", v)
		}
	}
	for i, vm := range back.Target.Allocation.VMs {
		if net.RegionIndex(vm.Instance.Region) < 0 {
			t.Fatalf("vm %d lost its region tag (instance %q)", i, vm.Instance.Name)
		}
		if vm.Instance != plan.Target.Allocation.VMs[i].Instance {
			t.Fatalf("vm %d instance changed: %+v vs %+v", i, vm.Instance, plan.Target.Allocation.VMs[i].Instance)
		}
	}
}
