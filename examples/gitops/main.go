// Gitops: the plan-review-apply workflow for a pub/sub deployment. Every
// change to the cluster — the initial bootstrap and a later traffic spike
// — is computed as a serializable plan, written to disk (the artifact a
// git-based review would version and approve), inspected, dry-run, and
// only then applied. The plan's fingerprint pins it to the exact cluster
// state it was computed against, so a plan approved for yesterday's
// cluster refuses to run on today's: the demo ends by replaying an
// outdated plan and showing the typed ErrStalePlan rejection.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	mcss "github.com/pubsub-systems/mcss"
)

func main() {
	dir, err := os.MkdirTemp("", "mcss-gitops")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// The service to deploy: a small Spotify-like workload on calibrated
	// c3 VMs.
	w, err := mcss.GenerateSpotify(mcss.DefaultSpotifyTrace().Scale(0.02))
	if err != nil {
		log.Fatal(err)
	}
	// Cap VMs small enough that packing matters, but with room for the
	// flash crowd planned below (the hottest topic triples, and a VM must
	// fit at least its ingress plus one egress stream).
	const msgBytes = 200
	var maxRate int64
	for t := 0; t < w.NumTopics(); t++ {
		if r := w.Rate(mcss.TopicID(t)); r > maxRate {
			maxRate = r
		}
	}
	model := mcss.NewModel(mcss.C3Large)
	model.CapacityOverrideBytesPerHour = 2_000_000
	if feasible := 2 * 3 * maxRate * msgBytes; model.CapacityOverrideBytesPerHour < feasible {
		model.CapacityOverrideBytesPerHour = feasible
	}
	planner, err := mcss.NewPlanner(mcss.WithTau(50), mcss.WithModel(model), mcss.WithMessageBytes(msgBytes))
	if err != nil {
		log.Fatal(err)
	}

	// ── 1. Plan: compute the bootstrap reconfiguration as data. ──
	bootstrap, err := planner.Plan(ctx, w, mcss.EmptyClusterState())
	if err != nil {
		log.Fatal(err)
	}
	planPath := filepath.Join(dir, "0001-bootstrap.json")
	if err := mcss.SavePlan(bootstrap, planPath); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(planPath)
	fmt.Printf("plan 0001: %d steps (%s), %d VMs, forecast %v (%d bytes on disk — commit it, review it)\n",
		len(bootstrap.Steps), bootstrap.StepMix(), bootstrap.Diff.Stats.VMsAfter, bootstrap.CostAfter, fi.Size())

	// ── 2. Review: reload the artifact; it is self-contained. ──
	reviewed, err := mcss.LoadPlan(planPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reviewed: base %s → target %s, Δcost %v\n",
		reviewed.BaseFingerprint, reviewed.TargetFingerprint(), reviewed.CostDelta())
	for i, s := range reviewed.Steps {
		if i >= 3 {
			fmt.Printf("  … %d more steps\n", len(reviewed.Steps)-3)
			break
		}
		fmt.Printf("  %v\n", s)
	}

	// ── 3. Dry run, then apply with per-step progress. ──
	prov, err := mcss.RestoreProvisioner(mcss.EmptyClusterState(), planner.Config())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mcss.Apply(ctx, reviewed, prov, mcss.ApplyDryRun()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("dry run: plan replays cleanly against the live state")
	steps := 0
	rep, err := mcss.Apply(ctx, reviewed, prov, mcss.WithStepObserver(
		func(i, total int, s mcss.DeployStep) error {
			steps++
			return nil
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied: %d steps, cost %v (= forecast: %v)\n\n", steps, rep.Cost, rep.Cost == reviewed.CostAfter)

	// ── 4. Demand drifts: the two hottest topics triple. ──
	hot, second := mcss.TopicID(0), mcss.TopicID(1)
	for t := 0; t < w.NumTopics(); t++ {
		id := mcss.TopicID(t)
		if w.Rate(id) > w.Rate(hot) {
			second, hot = hot, id
		} else if id != hot && w.Rate(id) > w.Rate(second) {
			second = id
		}
	}
	spiked, err := mcss.ApplyDelta(w, mcss.Delta{RateChanges: map[mcss.TopicID]int64{
		hot: w.Rate(hot) * 3, second: w.Rate(second) * 3,
	}})
	if err != nil {
		log.Fatal(err)
	}
	spike, err := planner.Plan(ctx, spiked, mcss.ClusterStateOf(prov))
	if err != nil {
		log.Fatal(err)
	}
	spikePath := filepath.Join(dir, "0002-flash-crowd.json")
	if err := mcss.SavePlan(spike, spikePath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan 0002: flash crowd on topics %d/%d — %d rate changes, %d→%d VMs in %d broker steps (%s), Δcost %v\n",
		hot, second, len(spike.Diff.Delta.RateChanges),
		spike.Diff.Stats.VMsBefore, spike.Diff.Stats.VMsAfter, len(spike.Steps), spike.StepMix(), spike.CostDelta())
	if _, err := mcss.Apply(ctx, spike, prov); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied: cluster now at %s, cost %v\n\n", mcss.ClusterStateOf(prov).Fingerprint(), prov.Cost())

	// ── 5. Staleness: yesterday's approved plan must not run today. ──
	stale, err := mcss.LoadPlan(planPath)
	if err != nil {
		log.Fatal(err)
	}
	_, err = mcss.Apply(ctx, stale, prov)
	if !errors.Is(err, mcss.ErrStalePlan) {
		log.Fatalf("expected ErrStalePlan, got %v", err)
	}
	fmt.Printf("replaying plan 0001 refused: %v\n", err)
	fmt.Println("→ re-plan against the current state instead of applying blind")
}
