package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	mcss "github.com/pubsub-systems/mcss"
	"github.com/pubsub-systems/mcss/internal/cli"
)

func TestParseOpts(t *testing.T) {
	tests := []struct {
		in      string
		want    mcss.OptFlags
		wantErr bool
	}{
		{"all", mcss.OptAll, false},
		{"none", 0, false},
		{"", 0, false},
		{"expensive", mcss.OptExpensiveTopicFirst, false},
		{"mostfree", mcss.OptMostFreeVM, false},
		{"cost", mcss.OptCostBased, false},
		{"expensive,cost", mcss.OptExpensiveTopicFirst | mcss.OptCostBased, false},
		{"Expensive, MostFree", mcss.OptExpensiveTopicFirst | mcss.OptMostFreeVM, false},
		{"bogus", 0, true},
		{"expensive,bogus", 0, true},
	}
	for _, tc := range tests {
		got, err := parseOpts(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseOpts(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("parseOpts(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestLoadWorkloadDispatch(t *testing.T) {
	if _, err := cli.LoadWorkload("", "", 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := cli.LoadWorkload("", "mars", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	w, err := cli.LoadWorkload("", "spotify", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumSubscribers() == 0 {
		t.Error("empty spotify workload")
	}

	// Round-trip through a trace file.
	path := filepath.Join(t.TempDir(), "t.gz")
	if err := mcss.SaveTrace(w, path); err != nil {
		t.Fatal(err)
	}
	back, err := cli.LoadWorkload(path, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPairs() != w.NumPairs() {
		t.Error("trace round trip changed pairs")
	}
}

func TestRunEndToEnd(t *testing.T) {
	err := run([]string{
		"-dataset", "twitter", "-scale", "0.01", "-tau", "50",
		"-stage1", "gsp", "-stage2", "cbp", "-opts", "all", "-verify", "-progress",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// An already-expired -timeout aborts the solve with DeadlineExceeded, the
// signal main maps to a clean partial-report exit.
func TestRunTimeoutAborts(t *testing.T) {
	err := run([]string{"-dataset", "twitter", "-scale", "0.01", "-tau", "50", "-timeout", "1ns"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// The -strategy flag resolves in the full-solve name table: "exact" runs
// (and verifies) on a tiny instance, and an unknown name is rejected up
// front.
func TestRunExactStrategyFlag(t *testing.T) {
	err := run([]string{"-dataset", "twitter", "-scale", "0.0001", "-tau", "5", "-strategy", "exact", "-verify"})
	if err != nil {
		t.Errorf("-strategy exact: %v", err)
	}
	if err := run([]string{"-dataset", "twitter", "-scale", "0.01", "-tau", "50", "-strategy", "bogus"}); err == nil {
		t.Error("unknown -strategy accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	bad := [][]string{
		{"-dataset", "twitter", "-scale", "0.01", "-instance", "m9.huge"},
		{"-dataset", "twitter", "-scale", "0.01", "-stage1", "xxx"},
		{"-dataset", "twitter", "-scale", "0.01", "-stage1", "topo-gsp"},
		{"-dataset", "twitter", "-scale", "0.01", "-stage2", "xxx"},
		{"-dataset", "twitter", "-scale", "0.01", "-stage2", "topo"},
		{"-dataset", "twitter", "-scale", "0.01", "-stage2", "spot"},
		{"-dataset", "twitter", "-scale", "0.01", "-stage1", "greedy"},
		{"-dataset", "twitter", "-scale", "0.01", "-stage1", "cbp"},
		{"-dataset", "twitter", "-scale", "0.01", "-stage2", "first-fit"},
		{"-dataset", "twitter", "-scale", "0.01", "-strategy", "gsp"},
		{"-dataset", "twitter", "-scale", "0.01", "-opts", "xxx"},
		// A latency SLO without a topology has no RTT model to bound.
		{"-dataset", "twitter", "-scale", "0.01", "-tau", "100", "-slo", "50"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// A multi-region -topology alone routes stage 2 by region: on a
// region-tagged trace, a 10 ms ceiling that no cross-region pair can meet
// fails the solve with ErrInfeasible without any -stage2 flag.
func TestRunTopologySLOInfeasible(t *testing.T) {
	base, err := mcss.GenerateTwitter(mcss.DefaultTwitterTrace().Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	w, err := mcss.TagRegions(base, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tagged.trace")
	if err := mcss.SaveTrace(w, path); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-trace", path, "-tau", "100", "-verify",
		"-topology", filepath.Join("..", "..", "internal", "traceio", "testdata", "topology_v1.json"), "-slo", "10"})
	if !errors.Is(err, mcss.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}
