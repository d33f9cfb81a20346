// Spotify scenario: generate the Spotify-like trace (music-activity
// notifications, small interest sets) and walk the paper's optimization
// ladder, showing how each Stage-2 optimization changes cost, fleet size,
// and bandwidth — a miniature of the paper's Fig. 2.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/report"
)

func main() {
	// ~3k artists, 13k listeners at scale 0.1 — solves in well under a
	// second.
	w, err := mcss.GenerateSpotify(mcss.DefaultSpotifyTrace().Scale(0.1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Spotify-like trace: %d topics, %d subscribers, %d pairs\n\n",
		w.NumTopics(), w.NumSubscribers(), w.NumPairs())

	model := experiments.ModelFor(pricing.C3Large, w)
	const tau = 100

	// The ladder's stage algorithms are picked by name from the Planner's
	// fixed per-stage tables (the names the mcss CLI's -stage1 and -stage2
	// flags take).
	rungs := []struct {
		name           string
		stage1, stage2 string
		opts           mcss.OptFlags
	}{
		{"naive RSP+FFBP", "rsp", "ffbp", 0},
		{"GSP+FFBP", "gsp", "ffbp", 0},
		{"GSP+CBP (group)", "gsp", "cbp", 0},
		{"GSP+CBP (all opts)", "gsp", "cbp", mcss.OptAll},
	}

	ctx := context.Background()
	t := report.NewTable(fmt.Sprintf("Optimization ladder, τ=%d, c3.large-class capacity", tau),
		"config", "cost", "VMs", "bytes/h", "stage1", "stage2")
	var naive, best float64
	var last *mcss.Planner
	for i, rung := range rungs {
		p, err := mcss.NewPlanner(
			mcss.WithTau(tau), mcss.WithModel(model),
			mcss.WithStage1(rung.stage1), mcss.WithStage2(rung.stage2),
			mcss.WithOptFlags(rung.opts),
		)
		if err != nil {
			log.Fatal(err)
		}
		last = p
		res, err := p.Solve(ctx, w)
		if err != nil {
			log.Fatal(err)
		}
		cost := res.Cost(model)
		if i == 0 {
			naive = cost.USD()
		}
		best = cost.USD()
		t.AddRow(rung.name, cost.String(), res.Allocation.NumVMs(),
			res.Allocation.TotalBytesPerHour(),
			res.Stage1Time.Round(1000).String(), res.Stage2Time.Round(1000).String())
	}
	lb, err := last.LowerBound(ctx, w)
	if err != nil {
		log.Fatal(err)
	}
	t.AddRow("lower bound", lb.Cost.String(), lb.VMs, lb.OutBytesPerHour, "-", "-")
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfull solution saves %.1f%% vs the naive baseline (paper: up to 38%% for Spotify)\n",
		(1-best/naive)*100)
}
