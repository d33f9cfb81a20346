package core_test

import (
	"math/rand"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/topo"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// TestGSPMatchesSortOracle: GSP's bounded picks select exactly what the
// sort-based scan it replaced selects, the same CSR offsets and topics, on
// the cold-solve benchmark's input (Spotify ×0.25 plus a seed-1 1% churn
// delta), on Twitter ×0.05 untagged and tagged with three regions under a
// three-region topology, at τ from 10 to 10⁵ and Parallelism 1 and 2; and
// on random small workloads whose few distinct rates make ties common,
// tagged or not.
func TestGSPMatchesSortOracle(t *testing.T) {
	spotifyScale, twitterScale, randomCases := 0.25, 0.05, 400
	if testing.Short() {
		spotifyScale, twitterScale, randomCases = 0.02, 0.01, 100
	}
	spotify, err := tracegen.Spotify(tracegen.DefaultSpotifyConfig().Scale(spotifyScale))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := dynamic.ApplyDelta(spotify, experiments.ChurnDelta(rand.New(rand.NewSource(1)), spotify, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	twitter, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(twitterScale))
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := tracegen.TagRegions(twitter, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := topo.SyntheticTopology(3)
	inputs := []struct {
		name     string
		w        *workload.Workload
		topology core.Topology
	}{
		{"cold-solve", cold, nil},
		{"twitter", twitter, nil},
		{"twitter-3-regions", tagged, net},
	}
	for _, in := range inputs {
		for _, tau := range []int64{10, 100, 1000, 10_000, 100_000} {
			for _, par := range []int{1, 2} {
				if d := core.GSPVsSortOracle(in.w, core.Config{Tau: tau, Topology: in.topology, Parallelism: par}); d != "" {
					t.Errorf("%s τ=%d parallelism %d: %s", in.name, tau, par, d)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(26))
	for c := 0; c < randomCases; c++ {
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics: 1 + rng.Intn(60), Subscribers: 1 + rng.Intn(40), MaxFollowings: 1 + rng.Intn(40),
			MaxRate: 1 + rng.Int63n(6), Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Tau: 1 + rng.Int63n(80), Parallelism: 1 + rng.Intn(2)}
		if rng.Intn(2) == 0 {
			if w, err = tracegen.TagRegions(w, 3, rng.Int63()); err != nil {
				t.Fatal(err)
			}
			cfg.Topology = net
		}
		if d := core.GSPVsSortOracle(w, cfg); d != "" {
			t.Fatalf("random case %d (τ=%d, tagged %v): %s", c, cfg.Tau, cfg.Topology != nil, d)
		}
	}
}
