// Command allocatord is the serving daemon around the allocator: it loads
// a cluster snapshot, solves a workload, or replays a timeline through the
// elastic controller, holds the resulting cluster state live, and exposes
// the observability surface over HTTP — Prometheus text /metrics, liveness
// and readiness probes, a JSON /state summary, and pprof.
//
// Readiness is tied to the first allocation: /healthz answers as soon as
// the listener is up, /readyz stays 503 until the snapshot is restored,
// the initial solve finishes, or the first timeline epoch lands. SIGTERM
// and SIGINT drain gracefully and exit 0 — the daemon treats a signal as
// a normal shutdown, not an interrupted solve.
//
// Examples:
//
//	allocatord -dataset twitter -scale 0.01 -tau 10
//	allocatord -snapshot cluster.json -addr :9090
//	allocatord -dataset twitter -scale 0.005 -diurnal -epochs 24 -epoch-interval 2s -incremental
//	allocatord -timeline day.timeline.gz -once -metrics-dump final.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/pubsub-systems/mcss/internal/cli"
	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/obs"
	"github.com/pubsub-systems/mcss/internal/obs/slogx"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/traceio"
)

func main() {
	os.Exit(cli.ExitCode("allocatord", run(os.Args[1:], os.Stderr), os.Stderr))
}

// options collects the parsed flag set — one struct so the daemon's load
// path is testable without a real command line.
type options struct {
	addr     string
	snapshot string
	trace    string
	dataset  string
	scale    float64
	tau      int64

	timelinePath  string
	diurnal       bool
	epochs        int
	epochMinutes  int64
	epochInterval time.Duration
	incremental   bool
	once          bool
	metricsDump   string

	dataDir        string
	journalSync    int
	compactEpochs  int
	requestTimeout time.Duration

	spot       bool
	spotMarket string
	chaosSeed  int64

	topologyPath string
	sloMillis    int64
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("allocatord", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", ":9090", "HTTP listen address")
	fs.StringVar(&o.snapshot, "snapshot", "", "cluster state file (a snapshot plan): restore without solving")
	fs.StringVar(&o.trace, "trace", "", "workload trace file: solve at startup")
	fs.StringVar(&o.dataset, "dataset", "", "synthetic dataset: twitter or spotify")
	fs.Float64Var(&o.scale, "scale", 0.01, "synthetic dataset scale factor")
	fs.Int64Var(&o.tau, "tau", 50, "satisfaction threshold τ (events/hour)")
	fs.StringVar(&o.timelinePath, "timeline", "", "timeline file: replay epochs through the elastic controller")
	fs.BoolVar(&o.diurnal, "diurnal", false, "modulate the dataset into a diurnal timeline and replay it")
	fs.IntVar(&o.epochs, "epochs", 24, "diurnal timeline epochs")
	fs.Int64Var(&o.epochMinutes, "epoch-minutes", 60, "diurnal epoch duration (virtual minutes)")
	fs.DurationVar(&o.epochInterval, "epoch-interval", 0, "wall-clock pause between replayed epochs (0 = replay at full speed)")
	fs.BoolVar(&o.incremental, "incremental", false, "use the incremental re-solve path for per-epoch candidates")
	fs.BoolVar(&o.once, "once", false, "exit after the timeline replay completes instead of serving until signalled")
	fs.BoolVar(&o.spot, "spot", false, "timeline replay on a spot market: price schedule, chaos reclamations, group repair")
	fs.StringVar(&o.spotMarket, "spot-market", "", "spot market file for -spot (empty = generate one matched to the timeline)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "reclamation draw seed for -spot")
	fs.StringVar(&o.topologyPath, "topology", "", "multi-region topology file: route pairs by region, prefer co-located pairs, and bill cross-region egress")
	fs.Int64Var(&o.sloMillis, "slo", 0, "latency SLO ceiling in ms on modeled delivery RTT (0 = none; needs -topology)")
	fs.StringVar(&o.metricsDump, "metrics-dump", "", "write the final metrics registry as JSON to this file on exit")
	fs.StringVar(&o.dataDir, "data-dir", "", "directory for the durable apply journal: replay it on startup and journal every apply")
	fs.IntVar(&o.journalSync, "journal-sync-every", 8, "fsync the journal every N step-done records (plan boundaries always sync)")
	fs.IntVar(&o.compactEpochs, "journal-compact-epochs", 8, "compact the journal to a snapshot every N epochs (0 = never)")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 30*time.Second, "per-request deadline on HTTP handlers (0 = none)")
	logLevel := slogx.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := slogx.Setup(stderr, *logLevel)

	ctx, stop := cli.Context(0)
	defer stop()

	d := newDaemon(logger)
	d.reqTimeout = o.requestTimeout
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String())

	serveErr := make(chan error, 1)
	go func() { serveErr <- d.serve(ctx, ln) }()

	if err := d.load(ctx, o); err != nil && !errors.Is(err, context.Canceled) {
		stop()
		<-serveErr
		return err
	}
	if o.once {
		stop()
	}
	err = <-serveErr
	if dumpErr := cli.DumpMetrics(d.m, o.metricsDump); dumpErr != nil && err == nil {
		err = dumpErr
	}
	return err
}

// daemon holds the live cluster state and the metrics registry behind the
// HTTP surface. All fields behind mu; the registry is internally safe.
type daemon struct {
	m   *obs.Metrics
	log *slog.Logger
	// reqTimeout bounds each HTTP request with its own deadline context
	// (0 = none), so a slow marshal cannot wedge the drain path.
	reqTimeout time.Duration

	mu        sync.RWMutex
	state     *deploy.State
	model     pricing.Model
	topology  *core.Topology
	sloMillis int64
	epoch     int
	epochs    int
	ready     bool
	degraded  bool
	status    string // the /readyz reason while not ready
}

func newDaemon(logger *slog.Logger) *daemon {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &daemon{m: obs.NewMetrics(nil), log: logger, status: "starting: no allocation yet"}
}

// setState installs a new live state, refreshes the allocation gauges, and
// flips readiness on the first call.
func (d *daemon) setState(st *deploy.State, model pricing.Model, epoch, epochs int) {
	d.m.RecordAllocation(st.Allocation, model)
	d.mu.Lock()
	if d.topology != nil {
		d.m.RecordTopology(d.topology, st.Allocation)
	}
	d.state, d.model = st, model
	d.epoch, d.epochs = epoch, epochs
	d.ready = true
	d.mu.Unlock()
}

// setStatus updates the not-ready reason /readyz serves.
func (d *daemon) setStatus(status string) {
	d.mu.Lock()
	d.status = status
	d.mu.Unlock()
}

// setDegraded installs a recovered state read-only: /state serves it, but
// the daemon never becomes ready and refuses to run new applies — the
// mode a journal corrupt past its last valid record puts the daemon in.
func (d *daemon) setDegraded(rec *deploy.Recovery, reason error) {
	d.mu.Lock()
	if rec.State != nil && rec.State.Allocation != nil {
		d.state, d.model = rec.State, rec.Model
		d.epoch = int(rec.Epoch)
	}
	d.degraded = true
	d.ready = false
	d.status = fmt.Sprintf("degraded: %v", reason)
	d.mu.Unlock()
}

// loadTopology loads the -topology file and the -slo ceiling, in every
// mode, as the daemon's active topology: /state and /metrics report it,
// and solves and replays route by it. No file is no topology; a positive
// ceiling without one is refused.
func (d *daemon) loadTopology(o options) error {
	t, err := cli.LoadTopology(o.topologyPath, o.sloMillis)
	if err != nil || t == nil {
		return err
	}
	d.mu.Lock()
	d.topology, d.sloMillis = t, o.sloMillis
	d.mu.Unlock()
	d.m.RecordTopology(t, nil)
	d.log.Info("topology loaded", "path", o.topologyPath,
		"regions", t.NumRegions(), "slo_ms", o.sloMillis)
	return nil
}

// applyTopology rewires a solving config for the active topology: the
// fleet replicated per region (Stage 2 routes pairs across it), the SLO
// ceiling, and, through cfg.Topology, the co-location preference of
// Stage 1 and egress billing.
func (d *daemon) applyTopology(cfg *core.Config) (err error) {
	cfg.Topology, cfg.LatencySLOMillis = d.topology, d.sloMillis
	cfg.Fleet, err = cli.RegionalFleet(d.topology, cfg.Fleet, cfg.Model)
	return err
}

// journalRig bundles the open apply journal with the executor every
// journaled apply runs through.
type journalRig struct {
	j            *deploy.Journal
	exec         deploy.Executor
	compactEvery int
}

// applyOptions is the per-epoch option set the elastic controller's apply
// hook hands to deploy.Apply.
func (rig *journalRig) applyOptions(epoch int) []deploy.ApplyOption {
	return []deploy.ApplyOption{
		deploy.WithJournal(rig.j),
		deploy.WithExecutor(rig.exec),
		deploy.WithApplyEpoch(epoch),
	}
}

// openJournal recovers and opens the apply journal under -data-dir. It
// returns the recovery (nil when the journal is fresh) and the rig for
// journaled applies. A journal corrupt past its last valid record puts
// the daemon in degraded mode: the partial recovery is served read-only
// and the returned rig is nil.
func (d *daemon) openJournal(o options) (*deploy.Recovery, *journalRig, error) {
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(o.dataDir, "apply.journal")
	var rec *deploy.Recovery
	if _, err := os.Stat(path); err == nil {
		d.setStatus("recovering: replaying apply journal")
		start := time.Now()
		rec, err = traceio.RecoverJournal(path)
		if err != nil {
			if errors.Is(err, deploy.ErrCorruptJournal) && rec != nil {
				d.m.RecordRecovery(rec)
				d.setDegraded(rec, err)
				d.log.Error("journal corrupt; entering degraded read-only mode",
					"path", path, "records", rec.Records, "err", err)
				return nil, nil, nil
			}
			return nil, nil, err
		}
		d.m.RecordRecovery(rec)
		d.log.Info("journal recovered", "path", path, "records", rec.Records,
			"committed", rec.Committed, "snapshots", rec.Snapshots,
			"epoch", rec.Epoch, "in_flight", rec.InFlight != nil,
			"torn", rec.Torn, "fingerprint", rec.State.Fingerprint(),
			"elapsed", time.Since(start).Round(time.Millisecond))
	}
	j, err := traceio.OpenJournal(path, deploy.JournalOptions{
		SyncEvery: o.journalSync,
		Hooks:     d.m.JournalHooks(),
	})
	if err != nil {
		return nil, nil, err
	}
	onRetry, onGiveUp := d.m.ApplyRetryHooks()
	exec := deploy.NewRetryExecutor(deploy.NopExecutor, deploy.RetryConfig{
		StepTimeout: o.requestTimeout,
		OnRetry: func(step, attempt int, err error) {
			onRetry(step, attempt, err)
			d.log.Warn("step retry", "step", step, "attempt", attempt, "err", err)
		},
		OnGiveUp: onGiveUp,
	})
	return rec, &journalRig{j: j, exec: exec, compactEvery: o.compactEpochs}, nil
}

// load dispatches on the input mode: snapshot restore, one-shot solve, or
// timeline replay through the elastic controller. The topology is loaded
// first, in every mode; with -data-dir the journal is replayed next and
// every apply is journaled.
func (d *daemon) load(ctx context.Context, o options) error {
	if err := d.loadTopology(o); err != nil {
		return err
	}
	var rec *deploy.Recovery
	var rig *journalRig
	if o.dataDir != "" {
		var err error
		rec, rig, err = d.openJournal(o)
		if err != nil {
			return err
		}
		if rig == nil {
			return nil // degraded: serve the partial recovery read-only
		}
		defer func() {
			if cerr := rig.j.Close(); cerr != nil {
				d.log.Error("journal close", "err", cerr)
			}
		}()
	}
	switch {
	case o.snapshot != "":
		plan, err := traceio.LoadPlan(o.snapshot)
		if err != nil {
			return err
		}
		// A regional snapshot's fleet is already region-tagged, so it is
		// not re-solved, only read under the topology: tags beyond it fail
		// as they would in a solve, and pairs over the ceiling are counted.
		lat, err := core.EvalLatency(d.topology, plan.Target.Workload, plan.Target.Allocation,
			plan.MessageBytes, d.sloMillis)
		if err != nil {
			return err
		}
		d.m.SetSLOViolations(lat.Violations)
		d.setState(plan.Target, plan.Model, 0, 0)
		if rig != nil {
			if err := rig.j.AppendSnapshot(-1, plan); err != nil {
				return err
			}
		}
		d.log.Info("snapshot restored", "path", o.snapshot,
			"fingerprint", plan.Target.Fingerprint(), "vms", plan.Target.Allocation.NumVMs())
		return nil
	case o.timelinePath != "" || o.diurnal:
		return d.runTimeline(ctx, o, rec, rig)
	default:
		w, err := cli.LoadWorkload(o.trace, o.dataset, o.scale)
		if err != nil {
			return err
		}
		model := experiments.ModelFor(pricing.C3Large, w)
		cfg := core.DefaultConfig(o.tau, model)
		cfg.Observer = d.m.Observer()
		if err := d.applyTopology(&cfg); err != nil {
			return err
		}
		start := time.Now()
		res, err := core.SolveContext(ctx, w, cfg)
		if err != nil {
			return err
		}
		st := deploy.NewState(w, res.Allocation)
		d.setState(st, model, 0, 0)
		if rig != nil {
			snap, err := deploy.Snapshot(cfg, st)
			if err != nil {
				return err
			}
			if err := rig.j.AppendSnapshot(-1, snap); err != nil {
				return err
			}
		}
		d.log.Info("solved", "topics", w.NumTopics(), "subscribers", w.NumSubscribers(),
			"vms", res.Allocation.NumVMs(), "fingerprint", st.Fingerprint(),
			"elapsed", time.Since(start).Round(time.Millisecond))
		return nil
	}
}

// runTimeline drives the elastic controller epoch by epoch via the Walk
// stepper, pushing every epoch's report, allocation, and ledger totals into
// the registry and updating the live state the endpoints serve. With a
// journal rig every epoch's plan application is journaled through the
// retrying executor; a recovery resumes the walk — finishing a half-applied
// plan first — at the epoch after the last durable one.
func (d *daemon) runTimeline(ctx context.Context, o options, rec *deploy.Recovery, rig *journalRig) error {
	tl, err := loadTimeline(o)
	if err != nil {
		return err
	}
	env, err := tl.Envelope()
	if err != nil {
		return err
	}
	model := experiments.ModelFor(pricing.C3Large, env)
	cfg := core.DefaultConfig(o.tau, model)
	cfg.Fleet = experiments.FleetFor(env)
	cfg.Observer = d.m.Observer()
	if err := d.applyTopology(&cfg); err != nil {
		return err
	}
	policy := elastic.DefaultPolicy()
	policy.Incremental = o.incremental

	ctl := elastic.NewController(cfg, policy)
	if o.spot {
		var market *spot.Market
		if o.spotMarket != "" {
			market, err = traceio.LoadSpotMarket(o.spotMarket)
		} else {
			// A market matched to the timeline, using the experiment's
			// generator settings so a replay exercises the same market
			// family `experiments -fig spot` reports on.
			market, err = spot.GenerateMarket(cfg.Fleet,
				experiments.SpotMarketConfig(tl.NumEpochs(), tl.EpochMinutes))
		}
		if err != nil {
			return err
		}
		if err := ctl.SetSpotMarket(market, o.chaosSeed); err != nil {
			return err
		}
	}
	if rig != nil {
		ctl.SetApplyHook(rig.applyOptions)
	}
	var wk *elastic.Walk
	if rec != nil {
		wk, err = ctl.ResumeRecovery(ctx, tl, rec)
	} else {
		wk, err = ctl.Start(ctx, tl)
	}
	if err != nil {
		return err
	}
	startEpoch := wk.NextEpoch()
	if rec != nil && startEpoch > 0 {
		// Serve the recovered allocation before the first stepped epoch.
		st := deploy.NewState(wk.Workload(), wk.Allocation())
		d.setState(st, model, startEpoch, tl.NumEpochs())
		d.log.Info("timeline resumed", "epoch", startEpoch, "fingerprint", st.Fingerprint())
	}
	d.log.Info("timeline replay starting", "epochs", tl.NumEpochs(), "start_epoch", startEpoch,
		"epoch_minutes", tl.EpochMinutes, "incremental", o.incremental, "spot", o.spot)
	var reclaimed, groups int
	var lost int64
	for !wk.Done() {
		ep, err := wk.Step(ctx)
		if err != nil {
			return err
		}
		d.m.RecordEpochReport(ep)
		d.m.RecordLedger(wk.Ledger())
		d.setState(deploy.NewState(wk.Workload(), wk.Allocation()), model, ep.Epoch+1, tl.NumEpochs())
		if rig != nil && rig.compactEvery > 0 && (ep.Epoch+1)%rig.compactEvery == 0 {
			snap, err := deploy.Snapshot(cfg, deploy.NewState(wk.Workload(), wk.Allocation()))
			if err != nil {
				return err
			}
			if err := rig.j.Compact(int64(ep.Epoch), snap); err != nil {
				return err
			}
			d.log.Info("journal compacted", "epoch", ep.Epoch)
		}
		if o.spot {
			reclaimed += ep.ReclaimedVMs
			groups += ep.ReclaimGroups
			lost += ep.LostPairMinutes
			d.log.Info("epoch", "n", ep.Epoch, "adopted", ep.Adopted, "forced", ep.Forced,
				"active_vms", ep.ActiveVMs, "billed_vms", ep.BilledVMs,
				"moved", ep.PairsMoved, "repriced", ep.Repriced,
				"reclaimed", ep.ReclaimedVMs, "repaired_pairs", ep.RepairedPairs,
				"lost_pair_min", ep.LostPairMinutes,
				"elapsed", ep.Duration.Round(time.Millisecond))
		} else {
			d.log.Info("epoch", "n", ep.Epoch, "adopted", ep.Adopted, "forced", ep.Forced,
				"active_vms", ep.ActiveVMs, "billed_vms", ep.BilledVMs,
				"moved", ep.PairsMoved, "fallback", ep.CandidateStats.Fallback,
				"elapsed", ep.Duration.Round(time.Millisecond))
		}
		if o.epochInterval > 0 && !wk.Done() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(o.epochInterval):
			}
		}
	}
	rep, err := wk.Finish()
	if err != nil {
		return err
	}
	d.m.RecordLedger(rep.Ledger)
	if o.spot {
		d.log.Info("timeline complete", "epochs", tl.NumEpochs(),
			"total_cost", rep.TotalCost().String(), "started_hours", rep.Ledger.StartedHours(),
			"pairs_moved", rep.TotalMoved(), "reclaimed_vms", reclaimed,
			"reclaim_groups", groups, "lost_pair_minutes", lost)
	} else {
		d.log.Info("timeline complete", "epochs", tl.NumEpochs(),
			"total_cost", rep.TotalCost().String(), "started_hours", rep.Ledger.StartedHours(),
			"pairs_moved", rep.TotalMoved())
	}
	return nil
}

// serve runs the HTTP server until ctx is cancelled, then drains it
// gracefully. A signal-driven cancellation returns nil: for a daemon that
// is a clean exit, not an interruption.
func (d *daemon) serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           d.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		d.log.Info("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /state", d.handleState)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return d.logRequests(d.withTimeout(mux))
}

// withTimeout derives a per-request deadline context so no handler can
// outlive -request-timeout. pprof profile/trace streams are exempt —
// their duration is the point.
func (d *daemon) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d.reqTimeout > 0 && !strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			ctx, cancel := context.WithTimeout(r.Context(), d.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := d.m.Registry.WritePrometheus(w); err != nil {
		d.log.Error("metrics write", "err", err)
	}
}

func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (d *daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	d.mu.RLock()
	ready, status := d.ready, d.status
	d.mu.RUnlock()
	if !ready {
		http.Error(w, status, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// stateDoc is the /state JSON shape: the live cluster's fingerprint plus a
// small cost/size summary — enough for a dashboard or a smoke test without
// scraping the full metrics page.
type stateDoc struct {
	Ready         bool    `json:"ready"`
	Degraded      bool    `json:"degraded,omitempty"`
	Fingerprint   string  `json:"fingerprint"`
	Epoch         int     `json:"epoch"`
	NumEpochs     int     `json:"num_epochs,omitempty"`
	VMs           int     `json:"vms"`
	Pairs         int64   `json:"pairs"`
	HourlyRateUSD float64 `json:"hourly_rate_usd"`
	CostUSD       float64 `json:"cost_usd"`

	// Multi-region surface: the active topology's regions and the live
	// allocation's per-region VM counts. Absent without -topology.
	TopologyRegions []string       `json:"topology_regions,omitempty"`
	RegionVMs       map[string]int `json:"region_vms,omitempty"`
	LatencySLOMs    int64          `json:"latency_slo_ms,omitempty"`
}

func (d *daemon) handleState(w http.ResponseWriter, r *http.Request) {
	d.mu.RLock()
	doc := stateDoc{Ready: d.ready, Degraded: d.degraded, Epoch: d.epoch, NumEpochs: d.epochs}
	if d.state != nil {
		doc.Fingerprint = d.state.Fingerprint()
		if alloc := d.state.Allocation; alloc != nil {
			doc.VMs = alloc.NumVMs()
			for _, vm := range alloc.VMs {
				doc.Pairs += int64(vm.NumPairs())
			}
			doc.HourlyRateUSD = alloc.HourlyRentalRate(d.model).USD()
			doc.CostUSD = alloc.Cost(d.model).USD()
		}
	}
	if t := d.topology; t != nil {
		doc.TopologyRegions = t.Regions()
		doc.LatencySLOMs = d.sloMillis
		if d.state != nil && d.state.Allocation != nil {
			doc.RegionVMs = make(map[string]int, t.NumRegions())
			for _, vm := range d.state.Allocation.VMs {
				doc.RegionVMs[t.RegionName(core.RegionOfInstance(t, vm.Instance))]++
			}
		}
	}
	d.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		d.log.Error("state write", "err", err)
	}
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (d *daemon) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		d.log.Debug("request", "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "elapsed", time.Since(start).Round(time.Microsecond))
	})
}

func loadTimeline(o options) (*timeline.Timeline, error) {
	if o.timelinePath != "" {
		return traceio.LoadTimeline(o.timelinePath)
	}
	base, err := cli.LoadWorkload(o.trace, o.dataset, o.scale)
	if err != nil {
		return nil, err
	}
	return cli.DiurnalTimeline(base, o.epochs, o.epochMinutes)
}
