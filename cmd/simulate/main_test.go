package main

import (
	"path/filepath"
	"testing"

	mcss "github.com/pubsub-systems/mcss"
)

func TestRunHealthy(t *testing.T) {
	err := run([]string{"-dataset", "spotify", "-scale", "0.01", "-tau", "50", "-hours", "1"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunPoisson(t *testing.T) {
	err := run([]string{"-dataset", "spotify", "-scale", "0.01", "-tau", "50", "-hours", "1", "-poisson", "-seed", "3"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunCrashAndRepair(t *testing.T) {
	err := run([]string{
		"-dataset", "spotify", "-scale", "0.01", "-tau", "50", "-hours", "1",
		"-crash-vm", "0", "-crash-at", "0.5", "-repair",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	bad := [][]string{
		{},                  // no source
		{"-dataset", "???"}, // unknown dataset
		{"-dataset", "spotify", "-scale", "0.01", "-crash-vm", "9999"}, // unknown VM
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestPerHour(t *testing.T) {
	sim := &mcss.SimResult{Delivered: []int64{20, 5}, DurationHours: 2}
	got := perHour(sim)
	if got[0] != 10 || got[1] != 2 {
		t.Errorf("perHour = %v, want [10 2]", got)
	}
}

func TestRunDiurnalTimelineReplay(t *testing.T) {
	err := run([]string{
		"-dataset", "twitter", "-scale", "0.005", "-tau", "50",
		"-diurnal", "-epochs", "4", "-epoch-minutes", "60",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunTimelineFromFile(t *testing.T) {
	base, err := mcss.GenerateRandom(mcss.RandomTraceConfig{
		Topics: 30, Subscribers: 150, MaxFollowings: 4, MaxRate: 200, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcss.DefaultDiurnalTrace()
	cfg.Epochs, cfg.EpochMinutes = 3, 60
	tl, err := mcss.GenerateDiurnal(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.timeline")
	if err := mcss.SaveTimeline(tl, path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-timeline", path, "-tau", "40"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// -diurnal modulates a -trace workload just like a -dataset one.
func TestRunDiurnalFromTrace(t *testing.T) {
	w, err := mcss.GenerateSpotify(mcss.DefaultSpotifyTrace().Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.trace")
	if err := mcss.SaveTrace(w, path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", path, "-tau", "50", "-diurnal", "-epochs", "3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}
