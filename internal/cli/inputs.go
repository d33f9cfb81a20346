package cli

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/obs"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/traceio"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// LoadWorkload reads the workload named by the -trace and -dataset flags:
// the trace file when one is given, otherwise the synthetic twitter or
// spotify dataset at scale.
func LoadWorkload(tracePath, dataset string, scale float64) (*workload.Workload, error) {
	switch {
	case tracePath != "":
		return traceio.Load(tracePath)
	case strings.EqualFold(dataset, "twitter"):
		return tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(scale))
	case strings.EqualFold(dataset, "spotify"):
		return tracegen.Spotify(tracegen.DefaultSpotifyConfig().Scale(scale))
	case dataset == "":
		return nil, errors.New("need -trace or -dataset")
	default:
		return nil, fmt.Errorf("unknown dataset %q (want twitter or spotify)", dataset)
	}
}

// DiurnalTimeline modulates a loaded base workload into the daily cycle
// `experiments -fig diurnal` reports on (flash crowd included, moved to
// the middle when it falls past the last epoch), so a replay exercises
// the same timeline family. Region tags carry over from the base.
func DiurnalTimeline(base *workload.Workload, epochs int, epochMinutes int64) (*timeline.Timeline, error) {
	cfg := experiments.DiurnalModulation()
	cfg.Epochs = epochs
	cfg.EpochMinutes = epochMinutes
	if cfg.FlashEpoch >= cfg.Epochs {
		cfg.FlashEpoch = cfg.Epochs / 2
	}
	return tracegen.Diurnal(base, cfg)
}

// LoadTopology reads the -topology file; an empty path means no topology,
// and then a positive -slo ceiling is an error, since only a topology
// gives the latency model it bounds.
func LoadTopology(path string, sloMillis int64) (*core.Topology, error) {
	if path == "" {
		if sloMillis > 0 {
			return nil, fmt.Errorf("-slo %d needs a -topology file", sloMillis)
		}
		return nil, nil
	}
	t, err := traceio.LoadTopology(path)
	if err != nil {
		return nil, fmt.Errorf("loading topology: %w", err)
	}
	return t, nil
}

// RegionalFleet returns the decision fleet a solve under t packs against:
// with more than one region, fleet (or the model's single type when fleet
// is empty) replicated into every region, which Stage 2 routes pairs
// across; otherwise fleet unchanged.
func RegionalFleet(t *core.Topology, fleet pricing.Fleet, model pricing.Model) (pricing.Fleet, error) {
	if t == nil || t.NumRegions() <= 1 {
		return fleet, nil
	}
	return core.RegionalFleet(model.FleetOr(fleet), t)
}

// DumpMetrics writes the metrics registry as JSON to path, so a run
// carries its telemetry next to its report. An empty path is a no-op.
func DumpMetrics(m *obs.Metrics, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Registry.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
