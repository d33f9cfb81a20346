package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/cli"
	"github.com/pubsub-systems/mcss/internal/obs/slogx"
	"github.com/pubsub-systems/mcss/internal/report"
)

// loadState reads the persisted cluster state (a zero-step snapshot plan
// written by a previous apply). A missing file — or an empty path — is the
// never-deployed cluster, so the very first plan bootstraps from nothing.
func loadState(path string) (*mcss.ClusterState, error) {
	if path == "" {
		return mcss.EmptyClusterState(), nil
	}
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return mcss.EmptyClusterState(), nil
	}
	p, err := mcss.LoadPlan(path)
	if err != nil {
		return nil, fmt.Errorf("state %s: %w", path, err)
	}
	return p.Target, nil
}

// saveState persists the cluster state as a snapshot plan.
func saveState(path string, cfg mcss.SolverConfig, s *mcss.ClusterState) error {
	snap, err := mcss.SnapshotPlan(cfg, s)
	if err != nil {
		return err
	}
	return mcss.SavePlan(snap, path)
}

// configFromPlan rebuilds the solver configuration a plan's own parameters
// describe — what apply uses, so a plan file is self-contained.
func configFromPlan(p *mcss.DeployPlan) (mcss.SolverConfig, error) {
	opts := []mcss.Option{mcss.WithTau(p.Tau), mcss.WithModel(p.Model), mcss.WithMessageBytes(p.MessageBytes)}
	if !p.Fleet.IsZero() {
		opts = append(opts, mcss.WithFleet(p.Fleet))
	}
	pl, err := mcss.NewPlanner(opts...)
	if err != nil {
		return mcss.SolverConfig{}, fmt.Errorf("plan parameters: %w", err)
	}
	return pl.Config(), nil
}

// printPlan renders the reviewable summary of a plan: the diff, the
// forecast, and (up to showSteps) the executable steps.
func printPlan(p *mcss.DeployPlan, showSteps int) error {
	d := p.Diff
	t := report.NewTable("plan", "metric", "value")
	t.AddRow("base fingerprint", p.BaseFingerprint)
	t.AddRow("target fingerprint", p.TargetFingerprint())
	t.AddRow("new topics / subscribers", fmt.Sprintf("%d / %d", len(d.Delta.NewTopics), d.Delta.NewSubscribers))
	t.AddRow("rate changes", len(d.Delta.RateChanges))
	t.AddRow("subscribe / unsubscribe", fmt.Sprintf("%d / %d", len(d.Delta.Subscribe), len(d.Delta.Unsubscribe)))
	t.AddRow("VMs", fmt.Sprintf("%d → %d", d.Stats.VMsBefore, d.Stats.VMsAfter))
	t.AddRow("pairs moved / kept", fmt.Sprintf("%d / %d", d.Stats.PairsMoved, d.Stats.PairsKept))
	t.AddRow("steps", fmt.Sprintf("%d (%s)", len(p.Steps), p.StepMix()))
	t.AddRow("cost", fmt.Sprintf("%v → %v (Δ %v)", p.CostBefore, p.CostAfter, p.CostDelta()))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for i, s := range p.Steps {
		if i >= showSteps {
			fmt.Printf("  … %d more steps\n", len(p.Steps)-showSteps)
			break
		}
		fmt.Printf("  step %3d: %v\n", i, s)
	}
	return nil
}

// runPlan computes a plan from the persisted state to the flag-described
// spec and writes it to -o.
func runPlan(args []string) error {
	fs := flag.NewFlagSet("mcss plan", flag.ContinueOnError)
	sf := registerSolverFlags(fs)
	var (
		statePath = fs.String("state", "", "cluster state file (missing or empty = plan from the empty cluster)")
		out       = fs.String("o", "plan.json", "output plan file (.gz compresses)")
		showSteps = fs.Int("show-steps", 10, "print the first N plan steps")
		timeout   = fs.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, stopMetrics, err := sf.instrument()
	if err != nil {
		return err
	}
	defer stopMetrics()
	w, p, _, _, err := sf.build(m)
	if err != nil {
		return err
	}
	current, err := loadState(*statePath)
	if err != nil {
		return err
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()

	plan, err := p.Plan(ctx, w, current)
	if err != nil {
		return err
	}
	if err := printPlan(plan, *showSteps); err != nil {
		return err
	}
	if err := mcss.SavePlan(plan, *out); err != nil {
		return err
	}
	fmt.Printf("plan written to %s — review it, then run: mcss apply", *out)
	if *statePath != "" {
		fmt.Printf(" -state %s", *statePath)
	}
	fmt.Printf(" %s\n", *out)
	return nil
}

// runDiff prints what a reconfiguration would change without writing a
// plan file; with a positional argument it prints an already-saved plan.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("mcss diff", flag.ContinueOnError)
	sf := registerSolverFlags(fs)
	var (
		statePath = fs.String("state", "", "cluster state file (missing or empty = diff against the empty cluster)")
		showSteps = fs.Int("show-steps", 10, "print the first N plan steps")
		timeout   = fs.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// Review mode: print a saved plan.
		plan, err := mcss.LoadPlan(fs.Arg(0))
		if err != nil {
			return err
		}
		return printPlan(plan, *showSteps)
	}
	m, stopMetrics, err := sf.instrument()
	if err != nil {
		return err
	}
	defer stopMetrics()
	w, p, _, _, err := sf.build(m)
	if err != nil {
		return err
	}
	current, err := loadState(*statePath)
	if err != nil {
		return err
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()
	plan, err := p.Plan(ctx, w, current)
	if err != nil {
		return err
	}
	return printPlan(plan, *showSteps)
}

// runApply loads a plan, verifies it against the persisted state, executes
// it, and persists the advanced state.
func runApply(args []string) error {
	fs := flag.NewFlagSet("mcss apply", flag.ContinueOnError)
	var (
		statePath = fs.String("state", "", "cluster state file to verify against and update; omitting it checks the plan against the empty cluster (bootstrap plans only) and persists nothing")
		dryRun    = fs.Bool("dry-run", false, "validate and replay the plan without adopting or persisting anything")
		quiet     = fs.Bool("quiet", false, "suppress per-step progress")
		timeout   = fs.Duration("timeout", 0, "abort the apply after this duration (0 = none)")
	)
	logLevel := slogx.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slogx.Setup(os.Stderr, *logLevel)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mcss apply [-state cluster.json] [-dry-run] plan.json")
	}
	plan, err := mcss.LoadPlan(fs.Arg(0))
	if err != nil {
		return err
	}
	current, err := loadState(*statePath)
	if err != nil {
		return err
	}
	cfg, err := configFromPlan(plan)
	if err != nil {
		return err
	}
	prov, err := mcss.RestoreProvisioner(current, cfg)
	if err != nil {
		return err
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()

	opts := []mcss.ApplyOption{}
	if *dryRun {
		opts = append(opts, mcss.ApplyDryRun())
	}
	if !*quiet {
		opts = append(opts, mcss.WithStepObserver(func(i, total int, s mcss.DeployStep) error {
			fmt.Printf("  [%d/%d] %v\n", i+1, total, s)
			return nil
		}))
	}
	rep, err := mcss.Apply(ctx, plan, prov, opts...)
	if err != nil {
		if errors.Is(err, mcss.ErrStalePlan) {
			if *statePath == "" {
				return fmt.Errorf("%w\nno -state file was given, so the plan was checked against the empty cluster; "+
					"pass -state <file> to apply against persisted state", err)
			}
			return fmt.Errorf("%w\nthe cluster drifted since this plan was computed; run `mcss plan` again", err)
		}
		return err
	}
	mode := "applied"
	if rep.DryRun {
		mode = "dry run ok"
	}
	fmt.Printf("%s: %d steps, fleet %d → %d VMs, %d pairs moved, cost %v → %v\n",
		mode, rep.StepsApplied, rep.Stats.VMsBefore, rep.Stats.VMsAfter,
		rep.Stats.PairsMoved, rep.Stats.CostBefore, rep.Stats.CostAfter)
	if rep.DryRun || *statePath == "" {
		return nil
	}
	if err := saveState(*statePath, cfg, mcss.ClusterStateOf(prov)); err != nil {
		return err
	}
	fmt.Printf("state written to %s (fingerprint %s)\n", *statePath, plan.TargetFingerprint())
	return nil
}
