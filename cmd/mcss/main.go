// Command mcss solves the Minimum Cost Subscriber Satisfaction problem for
// a pub/sub workload and prints the resulting allocation and cost report.
//
// Beyond the one-shot solve, the command drives the declarative
// deployment lifecycle through three subcommands:
//
//	mcss plan  -dataset twitter -tau 100 -state cluster.json -o plan.json
//	mcss diff  -dataset twitter -tau 100 -state cluster.json
//	mcss apply -state cluster.json plan.json
//
// `plan` computes a serializable reconfiguration from the persisted
// cluster state (or the empty cluster) to the desired workload; `diff`
// prints what a plan would change without writing one; `apply` verifies a
// plan's fingerprint against the state, executes it, and persists the new
// state. Applying a plan after the state drifted fails with ErrStalePlan.
//
// The workload comes either from a trace file (-trace, written by
// cmd/tracegen or traceio.Save) or from a built-in synthetic dataset
// (-dataset twitter|spotify with -scale).
//
// Examples:
//
//	mcss -dataset twitter -scale 0.1 -tau 100 -instance c3.large
//	mcss -dataset twitter -scale 0.1 -tau 100 -fleet catalog
//	mcss -trace trace.gz -tau 10 -fleet c3.large,c3.2xlarge
//	mcss -dataset spotify -tau 1000 -capacity 250000000 -verify
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/cli"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/obs"
	"github.com/pubsub-systems/mcss/internal/obs/slogx"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
)

func main() {
	os.Exit(cli.ExitCode("mcss", run(os.Args[1:]), os.Stderr))
}

// run dispatches the lifecycle subcommands and falls back to the classic
// one-shot solve for plain flag invocations.
func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "plan":
			return runPlan(args[1:])
		case "apply":
			return runApply(args[1:])
		case "diff":
			return runDiff(args[1:])
		}
	}
	return runSolve(args)
}

// solverFlags is the flag block shared by the solve, plan, and diff
// paths: where the workload comes from and how to solve it.
type solverFlags struct {
	tracePath, dataset                *string
	scale                             *float64
	tau                               *int64
	instance, fleetSpec               *string
	capacity, msgBytes                *int64
	stage1, stage2, optSpec, strategy *string
	topologyPath                      *string
	sloMillis                         *int64
	progress                          *bool
	metricsAddr, logLevel             *string
}

func registerSolverFlags(fs *flag.FlagSet) *solverFlags {
	return &solverFlags{
		tracePath: fs.String("trace", "", "workload trace file (see cmd/tracegen)"),
		dataset:   fs.String("dataset", "", "synthetic dataset: twitter or spotify"),
		scale:     fs.Float64("scale", 0.1, "synthetic dataset scale factor"),
		tau:       fs.Int64("tau", 100, "satisfaction threshold τ (events/hour)"),
		instance:  fs.String("instance", "c3.large", "EC2 instance type"),
		fleetSpec: fs.String("fleet", "", "heterogeneous fleet: 'catalog' or comma list of instance types (empty = single -instance)"),
		capacity:  fs.Int64("capacity", 0, "per-VM capacity override in bytes/hour for -instance, scaled per-mbps across the fleet (0 = calibrated)"),
		msgBytes:  fs.Int64("message-bytes", 200, "notification size in bytes"),
		stage1:    fs.String("stage1", "gsp", "stage 1 algorithm: gsp or rsp"),
		stage2:    fs.String("stage2", "cbp", "stage 2 algorithm: cbp, ffbp, or bfd"),
		optSpec:   fs.String("opts", "all", "CBP optimizations: all, none, or comma list of expensive,mostfree,cost"),
		strategy:  fs.String("strategy", "", "full-solve strategy replacing both stages (e.g. exact)"),
		topologyPath: fs.String("topology", "",
			"multi-region topology file (traceio mcss-topology format; empty = the paper's single region)"),
		sloMillis: fs.Int64("slo", 0,
			"latency SLO ceiling in ms on modeled delivery RTT (0 = none; needs a multi-region -topology)"),
		progress: fs.Bool("progress", false, "stream per-stage solver progress to stderr"),
		metricsAddr: fs.String("metrics-addr", "",
			"serve Prometheus /metrics on this address for the life of the run"),
		logLevel: slogx.Register(fs),
	}
}

// instrument installs leveled logging and, when -metrics-addr is given,
// starts the background /metrics listener over a fresh registry. The
// returned Metrics is nil when metrics are off; stop drains the listener.
func (sf *solverFlags) instrument() (*obs.Metrics, func(), error) {
	slogx.Setup(os.Stderr, *sf.logLevel)
	if *sf.metricsAddr == "" {
		return nil, func() {}, nil
	}
	m := obs.NewMetrics(nil)
	addr, stop, err := obs.ServeMetrics(*sf.metricsAddr, m.Registry)
	if err != nil {
		return nil, nil, err
	}
	slog.Info("serving metrics", "addr", addr)
	return m, stop, nil
}

// build loads the workload and assembles the Planner (plus the resolved
// model and fleet) from the parsed flags; a non-nil m attaches the metrics
// observer alongside any -progress reporter.
func (sf *solverFlags) build(m *obs.Metrics) (*mcss.Workload, *mcss.Planner, mcss.Model, mcss.Fleet, error) {
	fail := func(err error) (*mcss.Workload, *mcss.Planner, mcss.Model, mcss.Fleet, error) {
		return nil, nil, mcss.Model{}, mcss.Fleet{}, err
	}
	w, err := cli.LoadWorkload(*sf.tracePath, *sf.dataset, *sf.scale)
	if err != nil {
		return fail(err)
	}
	it, ok := mcss.InstanceByName(*sf.instance)
	if !ok {
		return fail(fmt.Errorf("unknown instance type %q", *sf.instance))
	}
	var model mcss.Model
	if *sf.capacity > 0 {
		model = mcss.NewModel(it)
		model.CapacityOverrideBytesPerHour = *sf.capacity
	} else {
		model = experiments.ModelFor(it, w)
	}
	fleet, err := parseFleet(*sf.fleetSpec)
	if err != nil {
		return fail(err)
	}
	if !fleet.IsZero() {
		// Put every fleet type on the same bytes-per-mbps scale as the
		// (possibly calibrated) -instance capacity.
		fleet = fleet.WithBytesPerMbps(model.CapacityBytesPerHour() / it.LinkMbps)
	}
	optFlags, err := parseOpts(*sf.optSpec)
	if err != nil {
		return fail(err)
	}
	topology, err := cli.LoadTopology(*sf.topologyPath, *sf.sloMillis)
	if err != nil {
		return fail(err)
	}
	if fleet, err = cli.RegionalFleet(topology, fleet, model); err != nil {
		return fail(err)
	}
	popts := []mcss.Option{
		mcss.WithTau(*sf.tau),
		mcss.WithModel(model),
		mcss.WithMessageBytes(*sf.msgBytes),
		mcss.WithStage1(strings.ToLower(*sf.stage1)),
		mcss.WithStage2(strings.ToLower(*sf.stage2)),
		mcss.WithOptFlags(optFlags),
		mcss.WithTopology(topology),
		mcss.WithLatencySLO(*sf.sloMillis),
	}
	if !fleet.IsZero() {
		popts = append(popts, mcss.WithFleet(fleet))
	}
	if *sf.strategy != "" {
		popts = append(popts, mcss.WithStrategy(*sf.strategy))
	}
	var watchers []mcss.Observer
	if *sf.progress {
		watchers = append(watchers, report.NewProgress(os.Stderr))
	}
	if m != nil {
		watchers = append(watchers, m.Observer())
	}
	if tee := obs.Tee(watchers...); tee != nil {
		popts = append(popts, mcss.WithObserver(tee))
	}
	p, err := mcss.NewPlanner(popts...)
	if err != nil {
		return fail(err)
	}
	return w, p, model, fleet, nil
}

func runSolve(args []string) error {
	fs := flag.NewFlagSet("mcss", flag.ContinueOnError)
	sf := registerSolverFlags(fs)
	var (
		verify  = fs.Bool("verify", false, "verify the allocation postconditions")
		showVMs = fs.Int("show-vms", 0, "print the first N VM placements")
		timeout = fs.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, stopMetrics, err := sf.instrument()
	if err != nil {
		return err
	}
	defer stopMetrics()
	w, p, model, fleet, err := sf.build(m)
	if err != nil {
		return err
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()

	fmt.Printf("workload: %d topics, %d subscribers, %d pairs\n",
		w.NumTopics(), w.NumSubscribers(), w.NumPairs())
	if fleet.IsZero() {
		fmt.Printf("config: τ=%d, %s (BC=%d bytes/h), stage1=%s stage2=%s opts=%v\n",
			*sf.tau, *sf.instance, model.CapacityBytesPerHour(), *sf.stage1, *sf.stage2, p.Config().Opts)
	} else {
		fmt.Printf("config: τ=%d, fleet %v, stage1=%s stage2=%s opts=%v\n",
			*sf.tau, fleet, *sf.stage1, *sf.stage2, p.Config().Opts)
	}

	res, err := p.Solve(ctx, w)
	if err != nil {
		return err
	}
	lb, err := p.LowerBound(ctx, w)
	if err != nil {
		return err
	}
	if m != nil {
		m.RecordAllocation(res.Allocation, model)
	}

	t := report.NewTable("solution",
		"metric", "value")
	t.AddRow("VMs", res.Allocation.NumVMs())
	t.AddRow("bandwidth (bytes/h)", res.Allocation.TotalBytesPerHour())
	t.AddRow("transfer over rental (GB)", float64(res.Allocation.TransferBytes(model))/float64(pricing.GB))
	t.AddRow("selected pairs", res.Selection.NumPairs())
	if !fleet.IsZero() {
		t.AddRow("fleet mix", report.FormatMix(res.Allocation.InstanceMix()))
	}
	t.AddRow("total cost", res.Cost(model).String())
	t.AddRow("lower bound cost", lb.Cost.String())
	t.AddRow("over lower bound", fmt.Sprintf("%.1f%%", 100*(float64(res.Cost(model))/float64(lb.Cost)-1)))
	t.AddRow("stage 1 time", res.Stage1Time.String())
	t.AddRow("stage 2 time", res.Stage2Time.String())
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	if *verify {
		if err := p.Verify(w, res.Selection, res.Allocation); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Println("verification: OK (satisfaction, capacity, accounting)")
	}

	for i, vm := range res.Allocation.VMs {
		if i >= *showVMs {
			break
		}
		fmt.Printf("vm %d (%s): %d topics, %d pairs, %d bytes/h (%.0f%% full)\n",
			vm.ID, vm.Instance.Name, len(vm.Placements), vm.NumPairs(), vm.BytesPerHour(),
			100*float64(vm.BytesPerHour())/float64(vm.CapacityBytesPerHour))
	}
	return nil
}

// parseFleet resolves the -fleet flag: empty → zero fleet (single-instance
// mode), "catalog" → every known type, else a comma list of type names.
func parseFleet(spec string) (mcss.Fleet, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "":
		return mcss.Fleet{}, nil
	case "catalog", "all":
		return mcss.CatalogFleet(), nil
	}
	var types []mcss.InstanceType
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		it, ok := mcss.InstanceByName(name)
		if !ok {
			return mcss.Fleet{}, fmt.Errorf("unknown instance type %q in -fleet", name)
		}
		types = append(types, it)
	}
	return mcss.NewFleet(types...)
}

func parseOpts(s string) (mcss.OptFlags, error) {
	switch strings.ToLower(s) {
	case "all":
		return mcss.OptAll, nil
	case "none", "":
		return 0, nil
	}
	var f mcss.OptFlags
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "expensive":
			f |= mcss.OptExpensiveTopicFirst
		case "mostfree":
			f |= mcss.OptMostFreeVM
		case "cost":
			f |= mcss.OptCostBased
		default:
			return 0, fmt.Errorf("unknown optimization %q", part)
		}
	}
	return f, nil
}
