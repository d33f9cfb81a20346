package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/cli"
	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/traceio"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// startServer runs the daemon's HTTP surface on an ephemeral port and
// returns its base URL plus the channel serve's result lands on.
func startServer(t *testing.T, d *daemon, ctx context.Context) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), done
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts the value of the first sample line whose name (and
// optional label set) starts with prefix.
func metricValue(t *testing.T, page, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no sample with prefix %q on the metrics page", prefix)
	return 0
}

// TestDaemonTimelineReplay is the end-to-end daemon check: a diurnal
// timeline replayed through the incremental elastic controller must leave
// non-zero incremental-repair, scale-decision, and billing counters on
// /metrics, flip /readyz after the first epoch, serve a fingerprinted
// /state, and drain cleanly (serve returns nil) on cancellation — the
// in-process equivalent of SIGTERM.
func TestDaemonTimelineReplay(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDaemon(nil)
	base, done := startServer(t, d, ctx)

	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before load = %d, want 503", code)
	}
	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q, want 200 ok", code, body)
	}

	o := options{
		dataset: "twitter", scale: 0.002, tau: 10,
		diurnal: true, epochs: 8, epochMinutes: 60,
		incremental: true,
	}
	if err := d.load(ctx, o); err != nil {
		t.Fatalf("timeline replay: %v", err)
	}

	if code, body := get(t, base+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz after replay = %d %q, want 200 ready", code, body)
	}

	_, page := get(t, base+"/metrics")
	for _, m := range []string{
		"mcss_controller_epochs_total",
		"mcss_incremental_epochs_total",
		"mcss_billing_vms_acquired_total",
		"mcss_billing_started_hours_total",
		"mcss_solve_stage_runs_total",
		"mcss_migration_pairs_kept_total",
	} {
		if v := metricValue(t, page, m); v <= 0 {
			t.Errorf("%s = %v, want > 0", m, v)
		}
	}
	if v := metricValue(t, page, "mcss_controller_epochs_total"); v != 8 {
		t.Errorf("controller epochs = %v, want 8", v)
	}
	// The diurnal cycle ramps up and back down, so the controller must
	// have decided to scale in at least one direction.
	if up := metricValue(t, page, `mcss_controller_scale_decisions_total{direction="up"}`); up <= 0 {
		t.Errorf("scale-up decisions = %v, want > 0", up)
	}

	code, body := get(t, base+"/state")
	if code != http.StatusOK {
		t.Fatalf("state = %d, want 200", code)
	}
	var doc stateDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("state JSON: %v\n%s", err, body)
	}
	if !doc.Ready || doc.Fingerprint == "" || doc.VMs <= 0 || doc.Pairs <= 0 {
		t.Errorf("state = %+v, want ready with fingerprint, VMs, and pairs", doc)
	}
	if doc.Epoch != 8 || doc.NumEpochs != 8 {
		t.Errorf("state epoch = %d/%d, want 8/8", doc.Epoch, doc.NumEpochs)
	}

	if code, body := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline = %d, want 200 with content", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after cancel = %v, want nil (clean drain)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain within 10s of cancellation")
	}
}

// TestDaemonSolveAndDump covers the one-shot solve mode plus -metrics-dump:
// readiness flips only after the solve, the stage histograms are populated,
// and the final registry lands on disk as JSON.
func TestDaemonSolveAndDump(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDaemon(nil)
	base, done := startServer(t, d, ctx)

	o := options{dataset: "spotify", scale: 0.005, tau: 50}
	if err := d.load(ctx, o); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after solve = %d, want 200", code)
	}
	_, page := get(t, base+"/metrics")
	if v := metricValue(t, page, `mcss_solve_stage_units_total{stage="stage1"}`); v <= 0 {
		t.Errorf("stage1 units = %v, want > 0", v)
	}
	if v := metricValue(t, page, "mcss_alloc_vms"); v <= 0 {
		t.Errorf("alloc VMs gauge = %v, want > 0", v)
	}

	dump := filepath.Join(t.TempDir(), "metrics.json")
	if err := cli.DumpMetrics(d.m, dump); err != nil {
		t.Fatalf("dump: %v", err)
	}
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if _, ok := doc["mcss_alloc_vms"]; !ok {
		t.Errorf("dump missing mcss_alloc_vms; keys = %d", len(doc))
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve after cancel = %v, want nil", err)
	}
}

// TestDaemonFallbackCounter replays a diurnal day on the incremental
// path, whose swing drifts the regret past the fixed 2-point bound, and
// asserts the fallback counter surfaces on /metrics — the acceptance
// check that a diurnal replay exposes non-zero fallback telemetry.
func TestDaemonFallbackCounter(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDaemon(nil)
	base, done := startServer(t, d, ctx)

	o := options{
		dataset: "twitter", scale: 0.002, tau: 10,
		diurnal: true, epochs: 6, epochMinutes: 60,
		incremental: true,
	}
	if err := d.load(ctx, o); err != nil {
		t.Fatalf("timeline replay: %v", err)
	}
	_, page := get(t, base+"/metrics")
	if v := metricValue(t, page, "mcss_solve_fallbacks_total"); v <= 0 {
		t.Errorf("mcss_solve_fallbacks_total = %v, want > 0", v)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve after cancel = %v, want nil", err)
	}
}

// TestDaemonUnknownDataset pins the error path: load must fail, readiness
// must stay down.
func TestDaemonUnknownDataset(t *testing.T) {
	d := newDaemon(nil)
	err := d.load(context.Background(), options{dataset: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("load = %v, want unknown dataset error", err)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.ready {
		t.Error("daemon became ready despite failed load")
	}
}

// TestRunOnceExitsCleanly exercises the full run() path in -once mode on
// an ephemeral port: the process-level contract that a completed replay
// (like a SIGTERM) ends with a nil error and therefore exit code 0.
func TestRunOnceExitsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("full run() replay is slow under -short")
	}
	dump := filepath.Join(t.TempDir(), "final.json")
	err := run([]string{
		"-addr", "127.0.0.1:0",
		"-dataset", "twitter", "-scale", "0.002", "-tau", "10",
		"-diurnal", "-epochs", "4", "-once",
		"-metrics-dump", dump,
		"-log-level", "error",
	}, io.Discard)
	if err != nil {
		t.Fatalf("run -once = %v, want nil", err)
	}
	if _, err := os.Stat(dump); err != nil {
		t.Errorf("metrics dump not written: %v", err)
	}
}

// A latency SLO without a topology has no RTT model to bound: the daemon
// refuses it instead of solving with no ceiling applied.
func TestRunRefusesSLOWithoutTopology(t *testing.T) {
	err := run([]string{
		"-addr", "127.0.0.1:0",
		"-dataset", "twitter", "-scale", "0.002", "-tau", "10",
		"-slo", "50", "-once",
		"-log-level", "error",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-topology") {
		t.Fatalf("run -slo without -topology = %v, want a -topology error", err)
	}
}

// topologyFile is the committed three-region topology the CLIs load.
var topologyFile = filepath.Join("..", "..", "internal", "traceio", "testdata", "topology_v1.json")

// writeSnapshot solves w under cfg and saves the result as a cluster
// snapshot, the file -snapshot restores.
func writeSnapshot(t *testing.T, w *workload.Workload, cfg core.Config) string {
	t.Helper()
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := deploy.Snapshot(cfg, deploy.NewState(w, res.Allocation))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := traceio.SavePlan(plan, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// Snapshot mode loads -topology and -slo like the other modes: an SLO
// without a topology is refused, a regional snapshot (whose fleet is
// already region-tagged) serves the topology's regions and the ceiling on
// /state, and a snapshot tagged with a region the topology lacks fails
// with the error a solve gives.
func TestSnapshotHonorsTopology(t *testing.T) {
	base, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 30, Subscribers: 80, MaxFollowings: 4, MaxRate: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	topology, err := traceio.LoadTopology(topologyFile)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(10, pricing.NewModel(pricing.C3Large))
	plain := writeSnapshot(t, base, cfg)

	err = run([]string{
		"-addr", "127.0.0.1:0", "-snapshot", plain, "-slo", "50", "-once",
		"-log-level", "error",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-topology") {
		t.Fatalf("run -snapshot -slo without -topology = %v, want a -topology error", err)
	}

	tagged, err := tracegen.TagRegions(base, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	regional := cfg
	regional.Topology, regional.LatencySLOMillis = topology, 200
	if regional.Fleet, err = core.RegionalFleet(cfg.Model.SingleFleet(), topology); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDaemon(nil)
	url, done := startServer(t, d, ctx)
	o := options{snapshot: writeSnapshot(t, tagged, regional), topologyPath: topologyFile, sloMillis: 200}
	if err := d.load(ctx, o); err != nil {
		t.Fatalf("regional snapshot: %v", err)
	}
	_, body := get(t, url+"/state")
	var doc stateDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("state JSON: %v\n%s", err, body)
	}
	vms := 0
	for _, n := range doc.RegionVMs {
		vms += n
	}
	if !doc.Ready || len(doc.TopologyRegions) != 3 || doc.LatencySLOMs != 200 || vms != doc.VMs || doc.VMs == 0 {
		t.Errorf("state = %+v, want ready with 3 topology regions, a 200 ms ceiling and every VM in a region", doc)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve after cancel = %v, want nil", err)
	}

	beyond, err := tracegen.TagRegions(base, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	regional.LatencySLOMillis = 0
	_, want := core.Solve(beyond, regional)
	if want == nil {
		t.Fatal("solve accepted region tags beyond the topology")
	}
	o = options{snapshot: writeSnapshot(t, beyond, cfg), topologyPath: topologyFile}
	if err := newDaemon(nil).load(context.Background(), o); fmt.Sprint(err) != want.Error() {
		t.Errorf("snapshot tagged beyond the topology: err = %v, want %v", err, want)
	}
}

// A snapshot whose VMs are tagged with regions the -topology file does not
// name (SyntheticTopology(3)'s r0–r2 against us-east, eu-west, ap-south)
// is refused, naming the type and the tag, instead of being read as all
// in the home region.
func TestSnapshotRefusesUnnamedInstanceRegions(t *testing.T) {
	base, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 30, Subscribers: 80, MaxFollowings: 4, MaxRate: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := tracegen.TagRegions(base, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(10, pricing.NewModel(pricing.C3Large))
	cfg.Topology = core.SyntheticTopology(3)
	if cfg.Fleet, err = core.RegionalFleet(cfg.Model.SingleFleet(), cfg.Topology); err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-addr", "127.0.0.1:0", "-snapshot", writeSnapshot(t, tagged, cfg),
		"-topology", topologyFile, "-once", "-log-level", "error",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "which the topology does not name") {
		t.Fatalf("run -snapshot with VM regions beyond -topology = %v, want a region error", err)
	}
}
