package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// deterministic names the metrics that must repeat exactly for a seed:
// the end-to-end figures of the scored ops and the traced run's counters.
var deterministic = []string{
	"cost_gap", "bill_usd", "pairs_moved",
	"deploy.plan.steps", "dynamic.fallbacks", "deploy.journal.fsyncs",
	"deploy.journal.bytes", "core.stage2.vms", "elastic.acquired_vms",
	"dynamic.delta_ops",
}

// TestDeterminism runs every workload twice at a small scale with one seed,
// untraced and traced, and requires the deterministic metrics to agree.
func TestDeterminism(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			first, second := smallRun(t, spec), smallRun(t, spec)
			for _, name := range deterministic {
				if first[name] != second[name] {
					t.Errorf("%s: %v then %v", name, first[name], second[name])
				}
			}
			for _, name := range []string{"pairs_moved", "deploy.plan.steps", "deploy.journal.fsyncs"} {
				if first[name] <= 0 {
					t.Errorf("%s is %v; the op did not run the layer", name, first[name])
				}
			}
			if first["cost_gap"] < 1 {
				t.Errorf("cost_gap %v below 1: cost under the lower bound", first["cost_gap"])
			}
		})
	}
}

// smallRun measures the workload's scored ops at testSizes, untraced and
// traced, and returns both runs' metrics in one map.
func smallRun(t *testing.T, spec workloadSpec) map[string]float64 {
	t.Helper()
	rc := runConfig{seed: 7, size: testSizes, seconds: 1, dir: t.TempDir(), maxOps: spec.scored(testSizes)}
	out := make(map[string]float64)
	for _, measureFn := range []func(context.Context, workloadSpec, runConfig) (*result, error){measure, measureTraced} {
		res, err := measureFn(context.Background(), spec, rc)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("op failed: %v", res.err)
		}
		for name, m := range res.metrics {
			out[name] = m.Value
		}
	}
	return out
}

// TestMetricsMatchBenchmarkJSON pins the metric names and units the runs
// print to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	rc := runConfig{seed: 1, size: testSizes, seconds: 1, dir: t.TempDir(), maxOps: 1}
	spec, _ := workloadByName("cold-solve")
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		measure  func(context.Context, workloadSpec, runConfig) (*result, error)
	}{{bench.EndToEnd, measure}, {bench.PerLayer, measureTraced}} {
		res, err := c.measure(context.Background(), spec, rc)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.metrics) != len(c.declared) {
			t.Errorf("run prints %d metrics, BENCHMARK.json declares %d", len(res.metrics), len(c.declared))
		}
		for _, d := range c.declared {
			if m, ok := res.metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s (%s): run prints %+v", d.Name, d.Unit, m)
			}
		}
	}
}
