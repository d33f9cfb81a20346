package traceio

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/topo"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// goldenPlan builds the deterministic plan committed as testdata: a small
// hand-built workload solved on a calibrated c3.large/c3.xlarge fleet,
// planned from the empty cluster.
func workloadForGolden(t *testing.T) *workload.Workload {
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

func goldenPlan(t *testing.T) *deploy.Plan {
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
	plan, err := deploy.NewPlanner(cfg).Plan(context.Background(), deploy.SpecFromWorkload(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPlanGolden pins the v1 wire format: the serialized golden plan must
// match the committed testdata byte for byte. Regenerate deliberately with
// UPDATE_GOLDEN=1 go test ./internal/traceio -run TestPlanGolden
// and review the diff — an unintended change here is a format break.
func TestPlanGolden(t *testing.T) {
	plan := goldenPlan(t)
	var buf bytes.Buffer
	if err := WritePlan(plan, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "plan_v1.json")
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
		if as.Op != bs.Op || as.VM != bs.VM || as.Topic != bs.Topic ||
			as.Instance != bs.Instance || as.Capacity != bs.Capacity ||
			len(as.Subs) != len(bs.Subs) {
			t.Fatalf("step %d: %v != %v", i, as, bs)
		}
	}
	if a.Target.Allocation.Cost(a.Model) != b.Target.Allocation.Cost(b.Model) {
		t.Fatal("target costs differ after round trip")
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
		{"wrong version", strings.Replace(good, `"version": 1`, `"version": 7`, 1)},
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
	net := topo.SyntheticTopology(2)
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
	if cfg.Fleet, err = topo.RegionalFleet(model.SingleFleet(), net); err != nil {
		t.Fatal(err)
	}
	cfg.Stage1 = topo.SelectColocated
	plan, err := deploy.NewPlanner(cfg).Plan(context.Background(), deploy.SpecFromWorkload(w), nil)
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
