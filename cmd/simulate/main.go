// Command simulate solves MCSS for a workload, replays it through the
// discrete-event pub/sub simulator, and reports empirical satisfaction,
// traffic, and latency — optionally injecting a VM crash and repairing it
// with the online provisioner.
//
// With -timeline (a saved timeline file) or -diurnal (synthesizing a daily
// cycle from the dataset), it instead drives the elastic controller over
// the epoch sequence and replays every epoch's allocation through the
// simulator, verifying each one stays satisfied.
//
// Examples:
//
//	simulate -dataset spotify -scale 0.02 -tau 50 -hours 2
//	simulate -dataset twitter -scale 0.01 -tau 10 -hours 1 -poisson
//	simulate -trace t.gz -tau 100 -crash-vm 0 -crash-at 0.5 -repair
//	simulate -dataset twitter -scale 0.01 -tau 100 -diurnal -epochs 12
//	simulate -timeline day.timeline.gz -tau 100
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/cli"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/obs"
	"github.com/pubsub-systems/mcss/internal/obs/slogx"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
	"github.com/pubsub-systems/mcss/internal/satisfy"
)

func main() {
	os.Exit(cli.ExitCode("simulate", run(os.Args[1:]), os.Stderr))
}

func run(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "workload trace file")
		dataset   = fs.String("dataset", "", "synthetic dataset: twitter or spotify")
		scale     = fs.Float64("scale", 0.02, "synthetic dataset scale factor")
		tau       = fs.Int64("tau", 50, "satisfaction threshold τ (events/hour)")
		hours     = fs.Float64("hours", 2, "virtual simulation horizon")
		poisson   = fs.Bool("poisson", false, "Poisson arrivals instead of fixed spacing")
		seed      = fs.Int64("seed", 1, "Poisson seed")
		maxEvents = fs.Int64("max-events", 5_000_000, "event cap")
		crashVM   = fs.Int("crash-vm", -1, "VM to crash (-1 = none)")
		crashAt   = fs.Float64("crash-at", 0.5, "crash time in virtual hours")
		repair    = fs.Bool("repair", false, "repair the crash with the online provisioner and re-simulate")

		timelinePath = fs.String("timeline", "", "timeline file: replay epoch-by-epoch through the elastic controller")
		diurnal      = fs.Bool("diurnal", false, "modulate the dataset into a diurnal timeline and replay it")
		epochs       = fs.Int("epochs", 24, "diurnal timeline epochs")
		epochMinutes = fs.Int64("epoch-minutes", 60, "diurnal epoch duration")
		satisfyFrac  = fs.Float64("satisfy-frac", 0.5, "fraction of τ_v·hours each subscriber must receive in replay")

		topologyPath = fs.String("topology", "", "multi-region topology file: route pairs by region, prefer co-located pairs, and bill cross-region egress")
		sloMillis    = fs.Int64("slo", 0, "latency SLO ceiling in ms on modeled delivery RTT (0 = none; needs -topology)")

		spotChaos  = fs.Bool("spot", false, "timeline mode: chaos replay on a spot market (price schedule, reclamation storms, group repair) vs all-on-demand")
		spotMarket = fs.String("spot-market", "", "spot market file for -spot (empty = generate one matched to the timeline)")
		chaosSeed  = fs.Int64("chaos-seed", 1, "reclamation draw seed for -spot")

		chaosApply     = fs.Int("chaos-apply", 0, "run N fault-injected journaled applies over the timeline's plans (transient faults + mid-apply crashes) and verify exactly-once recovery")
		chaosApplySeed = fs.Int64("chaos-apply-seed", 1, "seed for the -chaos-apply sweep")

		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		progress = fs.Bool("progress", false, "stream per-stage solver progress to stderr")

		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics on this address for the life of the run")
		metricsDump = fs.String("metrics-dump", "", "write the final metrics registry as JSON to this file")
	)
	logLevel := slogx.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Setup(os.Stderr, *logLevel)
	ctx, stop := cli.Context(*timeout)
	defer stop()

	m := obs.NewMetrics(nil)
	if *metricsAddr != "" {
		addr, stopMetrics, err := obs.ServeMetrics(*metricsAddr, m.Registry)
		if err != nil {
			return err
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "serving metrics on %s\n", addr)
	}
	watchers := []mcss.Observer{m.Observer()}
	if *progress {
		watchers = append(watchers, report.NewProgress(os.Stderr))
	}
	ctx = mcss.ContextWithObserver(ctx, obs.Tee(watchers...))

	if *chaosApply > 0 {
		return runChaosApply(ctx, chaosApplyArgs{
			timelineArgs: timelineArgs{
				path: *timelinePath, trace: *tracePath, dataset: *dataset, scale: *scale,
				tau: *tau, epochs: *epochs, epochMinutes: *epochMinutes,
			},
			cases: *chaosApply, seed: *chaosApplySeed,
		})
	}

	if *timelinePath != "" || *diurnal {
		err := runTimeline(ctx, timelineArgs{
			path: *timelinePath, trace: *tracePath, dataset: *dataset, scale: *scale,
			tau: *tau, epochs: *epochs, epochMinutes: *epochMinutes,
			maxEvents: *maxEvents, satisfyFrac: *satisfyFrac,
			spot: *spotChaos, spotMarket: *spotMarket, chaosSeed: *chaosSeed,
			topologyPath: *topologyPath, sloMillis: *sloMillis,
			metrics: m,
		})
		if derr := cli.DumpMetrics(m, *metricsDump); derr != nil && err == nil {
			err = derr
		}
		return err
	}

	w, err := cli.LoadWorkload(*tracePath, *dataset, *scale)
	if err != nil {
		return err
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	p, topology, err := newPlanner(*tau, model, mcss.Fleet{}, *topologyPath, *sloMillis)
	if err != nil {
		return err
	}
	cfg := p.Config()

	prov, err := p.Provision(ctx, w)
	if err != nil {
		return err
	}
	alloc := prov.Allocation()
	m.RecordAllocation(alloc, model)
	if topology != nil {
		m.RecordTopology(topology, alloc)
		lat, err := mcss.EvalLatency(topology, w, alloc, cfg.MessageBytes, *sloMillis)
		if err != nil {
			return err
		}
		m.SetSLOViolations(lat.Violations)
		fmt.Printf("topology: %d regions, modeled RTT p50 %d ms / p99 %d ms / max %d ms, %d SLO violations, egress %v/h (%d bytes/h)\n",
			topology.NumRegions(), lat.P50Millis, lat.P99Millis, lat.MaxMillis,
			lat.Violations, lat.EgressCostPerHour, lat.EgressBytesPerHour)
	}
	u := alloc.ComputeUtilization()
	fmt.Printf("workload: %d topics / %d subscribers / %d pairs\n",
		w.NumTopics(), w.NumSubscribers(), w.NumPairs())
	fmt.Printf("allocation: %d VMs, mean fill %.0f%%, incoming share %.1f%%, %d split topics\n",
		alloc.NumVMs(), u.MeanFill*100, u.IncomingShare*100, u.SplitTopics)

	simCfg := mcss.SimConfig{
		DurationHours: *hours,
		MessageBytes:  cfg.MessageBytes,
		MaxEvents:     *maxEvents,
		Poisson:       *poisson,
		PoissonSeed:   *seed,
	}
	if *crashVM >= 0 {
		simCfg.Crashes = []mcss.Crash{{VM: *crashVM, AtHour: *crashAt}}
	}

	start := time.Now()
	sim, err := mcss.Simulate(w, alloc, simCfg)
	if err != nil {
		return err
	}
	printSim(w, sim, *tau)
	fmt.Printf("(simulated in %s)\n", time.Since(start).Round(time.Millisecond))

	if *crashVM >= 0 && *repair {
		stats, err := prov.RepairCrash(*crashVM)
		if err != nil {
			return err
		}
		fmt.Printf("\nrepair: re-homed %d pairs onto %d-VM fleet (%d new)\n",
			stats.PairsRehomed, stats.VMsAfter, stats.NewVMs)
		simCfg.Crashes = nil
		sim, err = mcss.Simulate(w, prov.Allocation(), simCfg)
		if err != nil {
			return err
		}
		printSim(w, sim, *tau)
	}
	return cli.DumpMetrics(m, *metricsDump)
}

// newPlanner builds simulate's planner over model and fleet (empty = the
// model's single type). With -topology it attaches the topology and the
// SLO ceiling; with more than one region the fleet is replicated into
// every region, which Stage 2 routes pairs across, and stage 1 prefers
// co-located pairs.
func newPlanner(tau int64, model mcss.Model, fleet mcss.Fleet, topologyPath string, sloMillis int64) (*mcss.Planner, *mcss.NetworkTopology, error) {
	topology, fleet, err := cli.LoadTopology(topologyPath, fleet, model)
	if err != nil {
		return nil, nil, err
	}
	opts := []mcss.Option{mcss.WithTau(tau), mcss.WithModel(model)}
	if !fleet.IsZero() {
		opts = append(opts, mcss.WithFleet(fleet))
	}
	if topology != nil {
		opts = append(opts, mcss.WithTopology(topology), mcss.WithLatencySLO(sloMillis))
	}
	p, err := mcss.NewPlanner(opts...)
	return p, topology, err
}

func printSim(w *mcss.Workload, sim *mcss.SimResult, tau int64) {
	m := satisfy.Measure(w, perHour(sim), tau)
	fmt.Printf("simulated %v h: %d publications, %d deliveries, %d dropped\n",
		sim.DurationHours, sim.Events, sim.Deliveries, sim.DroppedDeliveries)
	fmt.Printf("satisfaction: %d/%d subscribers (mean ratio %.3f, min %.3f)\n",
		m.Satisfied, m.Total, m.MeanRatio, m.MinRatio)
	if sim.MaxLatencyNanos > 0 {
		fmt.Printf("latency: mean %s, max %s\n",
			time.Duration(sim.MeanLatencyNanos()), time.Duration(sim.MaxLatencyNanos))
	}
}

// perHour converts cumulative delivered counts into events/hour for the
// satisfaction metrics (floor effects make this slightly conservative).
func perHour(sim *mcss.SimResult) []int64 {
	out := make([]int64, len(sim.Delivered))
	for v, d := range sim.Delivered {
		out[v] = int64(float64(d) / sim.DurationHours)
	}
	return out
}

type timelineArgs struct {
	path, dataset string
	trace         string
	scale         float64
	tau           int64
	epochs        int
	epochMinutes  int64
	maxEvents     int64
	satisfyFrac   float64
	spot          bool
	spotMarket    string
	chaosSeed     int64
	topologyPath  string
	sloMillis     int64
	metrics       *obs.Metrics
}

// buildTimeline loads the timeline file when one was given, otherwise
// modulates the -trace or -dataset workload into the diurnal cycle — the
// same timeline family both replay and the chaos-apply sweep exercise.
func buildTimeline(a timelineArgs) (*mcss.Timeline, error) {
	if a.path != "" {
		return mcss.LoadTimeline(a.path)
	}
	base, err := cli.LoadWorkload(a.trace, a.dataset, a.scale)
	if err != nil {
		return nil, err
	}
	return cli.DiurnalTimeline(base, a.epochs, a.epochMinutes)
}

// runTimeline drives the elastic controller over a timeline and replays
// every epoch's allocation through the simulator, failing if any epoch
// falls short of its satisfaction thresholds.
func runTimeline(ctx context.Context, a timelineArgs) error {
	tl, err := buildTimeline(a)
	if err != nil {
		return err
	}

	env, err := tl.Envelope()
	if err != nil {
		return err
	}
	// The same envelope-calibrated fleet the diurnal experiment sizes
	// against, so replay verifies what -fig diurnal reports.
	p, topology, err := newPlanner(a.tau, mcss.NewModel(mcss.C3Large), experiments.FleetFor(env),
		a.topologyPath, a.sloMillis)
	if err != nil {
		return err
	}
	cfg := p.Config()

	var rep, baseline *mcss.ElasticRunReport
	if a.spot {
		var market *mcss.SpotMarket
		if a.spotMarket != "" {
			market, err = mcss.LoadSpotMarket(a.spotMarket)
		} else {
			// A market over the planner's fleet (regional with
			// -topology), matched to the timeline, using the experiment's
			// generator settings so replay exercises the same market family
			// `experiments -fig spot` reports on.
			market, err = mcss.GenerateSpotMarket(cfg.Fleet,
				experiments.SpotMarketConfig(tl.NumEpochs(), tl.EpochMinutes))
		}
		if err != nil {
			return err
		}
		rep, err = p.RunTimelineSpot(ctx, tl, mcss.DefaultElasticPolicy(), market,
			mcss.SpotRunConfig{ChaosSeed: a.chaosSeed})
		if err != nil {
			return err
		}
		// The all-on-demand run over the same timeline — the bill the spot
		// portfolio's realized savings are measured against.
		baseline, err = p.RunTimeline(ctx, tl, mcss.DefaultElasticPolicy())
		if err != nil {
			return err
		}
	} else {
		rep, err = p.RunTimeline(ctx, tl, mcss.DefaultElasticPolicy())
		if err != nil {
			return err
		}
	}
	if a.metrics != nil {
		for _, ep := range rep.Epochs {
			a.metrics.RecordEpochReport(ep)
		}
		a.metrics.RecordLedger(rep.Ledger)
		if n := len(rep.Allocations); n > 0 {
			a.metrics.RecordAllocation(rep.Allocations[n-1], p.Config().Model)
			if topology != nil {
				a.metrics.RecordTopology(topology, rep.Allocations[n-1])
			}
		}
	}
	fmt.Printf("timeline: %d epochs × %d min, %d topics / %d subscribers\n",
		tl.NumEpochs(), tl.EpochMinutes, tl.Epochs[0].NumTopics(), tl.Epochs[0].NumSubscribers())

	unsatisfied := 0
	for e, alloc := range rep.Allocations {
		w := tl.Epochs[e]
		sim, err := mcss.Simulate(w, alloc, mcss.SimConfig{
			DurationHours: tl.EpochHours(),
			MessageBytes:  cfg.MessageBytes,
			MaxEvents:     a.maxEvents,
		})
		if err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		m := satisfy.Measure(w, perHour(sim), a.tau)
		status := "ok"
		if err := mcss.CheckSatisfaction(w, sim, a.tau, a.satisfyFrac); err != nil {
			status = "UNSATISFIED"
			unsatisfied++
		}
		ep := rep.Epochs[e]
		if a.spot {
			fmt.Printf("epoch %2d: %d active / %d billed VMs, %7d moved, %4d reclaimed, %7d repaired, %8d lost pair-min, %9d deliveries, mean ratio %.3f [%s]\n",
				e, ep.ActiveVMs, ep.BilledVMs, ep.PairsMoved, ep.ReclaimedVMs,
				ep.RepairedPairs, ep.LostPairMinutes, sim.Deliveries, m.MeanRatio, status)
		} else {
			fmt.Printf("epoch %2d: %d active / %d billed VMs, %7d moved, %6d added, %9d deliveries, mean ratio %.3f [%s]\n",
				e, ep.ActiveVMs, ep.BilledVMs, ep.PairsMoved, ep.AddedPairs, sim.Deliveries, m.MeanRatio, status)
		}
	}
	if topology != nil && rep.Ledger.EgressBytes() > 0 {
		fmt.Printf("bill: total %v (rental %v + transfer %v + egress %v), %d started VM-hours, %d pairs moved\n",
			rep.TotalCost(), rep.RentalCost(), rep.TransferCost(), rep.EgressCost(),
			rep.Ledger.StartedHours(), rep.TotalMoved())
	} else {
		fmt.Printf("bill: total %v (rental %v + transfer %v), %d started VM-hours, %d pairs moved\n",
			rep.TotalCost(), rep.RentalCost(), rep.TransferCost(), rep.Ledger.StartedHours(), rep.TotalMoved())
	}
	if a.spot && baseline != nil {
		var reclaimed, groups int
		var lost int64
		for _, ep := range rep.Epochs {
			reclaimed += ep.ReclaimedVMs
			groups += ep.ReclaimGroups
			lost += ep.LostPairMinutes
		}
		savings := 0.0
		if baseline.TotalCost() != 0 {
			savings = 1 - float64(rep.TotalCost())/float64(baseline.TotalCost())
		}
		if a.metrics != nil {
			a.metrics.SetSpotSavings(savings)
		}
		fmt.Printf("chaos: %d VMs reclaimed in %d groups, %d pair-minutes lost to repair lag\n",
			reclaimed, groups, lost)
		fmt.Printf("spot portfolio bill %v vs all-on-demand %v — realized savings %.1f%%\n",
			rep.TotalCost(), baseline.TotalCost(), savings*100)
	}
	if unsatisfied > 0 {
		return fmt.Errorf("%d of %d epochs fell short of satisfaction in replay", unsatisfied, tl.NumEpochs())
	}
	fmt.Println("every epoch satisfied under simulation replay")
	return nil
}
