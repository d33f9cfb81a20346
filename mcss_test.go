package mcss_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	mcss "github.com/pubsub-systems/mcss"
)

// buildDemo constructs a small social workload through the public API.
func buildDemo(t *testing.T) *mcss.Workload {
	t.Helper()
	b := mcss.NewWorkloadBuilder().
		AddTopic("artist-a", 120).
		AddTopic("artist-b", 40).
		AddTopic("friend-c", 8)
	for i := 0; i < 20; i++ {
		u := fmt.Sprintf("user-%d", i)
		b.AddSubscription(u, "artist-a")
		if i%2 == 0 {
			b.AddSubscription(u, "artist-b")
		}
		if i%5 == 0 {
			b.AddSubscription(u, "friend-c")
		}
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// demoPlanner builds the paper's full solution at τ over a VM capacity
// small enough to force a multi-VM fleet for buildDemo's workload.
func demoPlanner(t *testing.T, tau int64, opts ...mcss.Option) *mcss.Planner {
	t.Helper()
	m := mcss.NewModel(mcss.C3Large)
	m.CapacityOverrideBytesPerHour = 60_000 // force a multi-VM fleet
	p, err := mcss.NewPlanner(append([]mcss.Option{mcss.WithTau(tau), mcss.WithModel(m)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPublicSolveEndToEnd(t *testing.T) {
	ctx := context.Background()
	w := buildDemo(t)
	p := demoPlanner(t, 50)
	res, err := p.Solve(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation.NumVMs() == 0 {
		t.Fatal("no VMs")
	}
	if err := p.Verify(w, res.Selection, res.Allocation); err != nil {
		t.Errorf("Verify: %v", err)
	}
	lb, err := p.LowerBound(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if cost := res.Cost(p.Config().Model); lb.Cost > cost {
		t.Errorf("lower bound %v above solution %v", lb.Cost, cost)
	}
}

func TestPublicGeneratorsAndTraceIO(t *testing.T) {
	tw, err := mcss.GenerateTwitter(mcss.DefaultTwitterTrace().Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mcss.GenerateSpotify(mcss.DefaultSpotifyTrace().Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if tw.NumPairs() == 0 || sp.NumPairs() == 0 {
		t.Fatal("empty generated traces")
	}
	path := filepath.Join(t.TempDir(), "trace.gz")
	if err := mcss.SaveTrace(tw, path); err != nil {
		t.Fatal(err)
	}
	back, err := mcss.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPairs() != tw.NumPairs() {
		t.Errorf("round trip pairs %d != %d", back.NumPairs(), tw.NumPairs())
	}
}

func TestPublicSimulation(t *testing.T) {
	w := buildDemo(t)
	p := demoPlanner(t, 50)
	cfg := p.Config()
	res, err := p.Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mcss.Simulate(w, res.Allocation, mcss.SimConfig{
		DurationHours: 2,
		MessageBytes:  cfg.MessageBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mcss.CheckSatisfaction(w, sim, cfg.Tau, 0.9); err != nil {
		t.Errorf("CheckSatisfaction: %v", err)
	}
}

func TestPublicCluster(t *testing.T) {
	w := buildDemo(t)
	res, err := demoPlanner(t, 50).Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	c, err := mcss.NewCluster(w, res.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if err := c.Publish(mcss.Message{Topic: 0, Payload: make([]byte, 200)}); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if c.TotalDelivered() == 0 {
		t.Error("no deliveries")
	}
}

func TestPublicProvisioner(t *testing.T) {
	w := buildDemo(t)
	p, err := demoPlanner(t, 50).Provision(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Update(mcss.Delta{
		NewSubscribers: 1,
		Subscribe:      []mcss.Pair{{Topic: 0, Sub: mcss.SubID(w.NumSubscribers())}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VMsAfter == 0 {
		t.Error("no VMs after update")
	}
}

// TestMigrationStatsBetweenNil: a nil allocation before, after or on both
// sides counts as the empty allocation.
func TestMigrationStatsBetweenNil(t *testing.T) {
	p := demoPlanner(t, 50)
	res, err := p.Solve(context.Background(), buildDemo(t))
	if err != nil {
		t.Fatal(err)
	}
	a, empty, m := res.Allocation, &mcss.Allocation{}, p.Config().Model
	for _, tc := range []struct {
		name                    string
		before, after, eqB, eqA *mcss.Allocation
	}{
		{"nil before", nil, a, empty, a},
		{"nil after", a, nil, a, empty},
		{"both nil", nil, nil, empty, empty},
	} {
		got := mcss.MigrationStatsBetween(tc.before, tc.after, m)
		if want := mcss.MigrationStatsBetween(tc.eqB, tc.eqA, m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v, want the empty allocation's %+v", tc.name, got, want)
		}
	}
}

func TestPublicExact(t *testing.T) {
	w, err := mcss.NewWorkloadBuilder().
		AddTopic("a", 5).
		AddTopic("b", 7).
		AddSubscription("v", "a").
		AddSubscription("v", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := demoPlanner(t, 6, mcss.WithMessageBytes(1))
	sol, err := p.SolveExact(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 1 {
		t.Errorf("Selected = %v, want a single pair", sol.Selected)
	}
	res, err := p.Solve(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost(p.Config().Model) < sol.Cost {
		t.Error("heuristic beat exact")
	}
}

func TestInstanceCatalogLookup(t *testing.T) {
	if len(mcss.InstanceCatalog()) < 2 {
		t.Fatal("catalog too small")
	}
	it, ok := mcss.InstanceByName("c3.large")
	if !ok || it != mcss.C3Large {
		t.Errorf("lookup failed: %v %v", it, ok)
	}
}

// ExamplePlanner_Solve demonstrates the minimal end-to-end flow.
func ExamplePlanner_Solve() {
	w, _ := mcss.NewWorkloadBuilder().
		AddTopic("artist", 60). // 60 events/hour
		AddSubscription("alice", "artist").
		AddSubscription("bob", "artist").
		Build()

	p, _ := mcss.NewPlanner(mcss.WithTau(100), mcss.WithModel(mcss.NewModel(mcss.C3Large)))
	res, _ := p.Solve(context.Background(), w)

	fmt.Println("VMs:", res.Allocation.NumVMs())
	fmt.Println("pairs:", res.Selection.NumPairs())
	// Output:
	// VMs: 1
	// pairs: 2
}

func TestPublicSatisfactionAPI(t *testing.T) {
	w := buildDemo(t)
	const tau = 50

	budget := mcss.MinBudgetToSatisfyAll(w, tau, 200)
	if budget <= 0 {
		t.Fatal("non-positive budget")
	}
	res, err := mcss.MaximizeSatisfied(w, tau, budget, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != w.NumSubscribers() {
		t.Errorf("at min budget satisfied %d of %d", len(res.Satisfied), w.NumSubscribers())
	}

	// Half the budget satisfies fewer subscribers.
	half, err := mcss.MaximizeSatisfied(w, tau, budget/2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(half.Satisfied) >= len(res.Satisfied) {
		t.Errorf("half budget satisfied %d, want fewer than %d",
			len(half.Satisfied), len(res.Satisfied))
	}

	delivered := make([]int64, w.NumSubscribers())
	m := mcss.MeasureSatisfaction(w, delivered, tau)
	if m.Satisfied != 0 || m.AllSatisfied() {
		t.Errorf("zero deliveries metrics = %+v", m)
	}
}

func TestPublicUtilization(t *testing.T) {
	w := buildDemo(t)
	res, err := demoPlanner(t, 50).Solve(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	var u mcss.Utilization = res.Allocation.ComputeUtilization()
	if u.MeanFill <= 0 || u.MeanFill > 1 {
		t.Errorf("MeanFill = %v", u.MeanFill)
	}
}

// maxTopicRate is a helper for fleet calibration in tests.
func maxTopicRate(w *mcss.Workload) int64 {
	var max int64
	for t := 0; t < w.NumTopics(); t++ {
		if r := w.Rate(mcss.TopicID(t)); r > max {
			max = r
		}
	}
	return max
}

// TestHeterogeneousNeverWorseThanBestHomogeneous is the public-API
// guarantee behind heterogeneous fleets: handing the Planner the full C3
// catalog as the fleet yields cost no worse than the cheapest single-type
// solve, on Twitter-like, Spotify-like, and uniform random traces.
func TestHeterogeneousNeverWorseThanBestHomogeneous(t *testing.T) {
	ctx := context.Background()
	twitter, err := mcss.GenerateTwitter(mcss.DefaultTwitterTrace().Scale(0.04))
	if err != nil {
		t.Fatal(err)
	}
	spotify, err := mcss.GenerateSpotify(mcss.DefaultSpotifyTrace().Scale(0.04))
	if err != nil {
		t.Fatal(err)
	}
	random, err := mcss.GenerateRandom(mcss.RandomTraceConfig{
		Topics: 120, Subscribers: 600, MaxFollowings: 6, MaxRate: 80, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*mcss.Workload{
		"twitter": twitter,
		"spotify": spotify,
		"random":  random,
	}
	for name, w := range traces {
		// Calibrate the catalog so c3.large holds a handful of the
		// hottest topic's pairs; capacities stay proportional to link
		// speed across the fleet.
		bpm := maxTopicRate(w) * 200 / 16 // c3.large cap = 4 × hottest topic bw
		fleet := mcss.CatalogFleet().WithBytesPerMbps(bpm)
		model := mcss.NewModel(mcss.C3Large)

		planner := func(f mcss.Fleet) *mcss.Planner {
			p, err := mcss.NewPlanner(mcss.WithTau(100), mcss.WithModel(model), mcss.WithFleet(f))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}

		mixedP := planner(fleet)
		mixed, err := mixedP.Solve(ctx, w)
		if err != nil {
			t.Fatalf("%s mixed solve: %v", name, err)
		}
		if err := mixedP.Verify(w, mixed.Selection, mixed.Allocation); err != nil {
			t.Errorf("%s mixed verify: %v", name, err)
		}
		lb, err := mixedP.LowerBound(ctx, w)
		if err != nil {
			t.Fatalf("%s lower bound: %v", name, err)
		}
		if lb.Cost > mixed.Cost(model) {
			t.Errorf("%s: lower bound %v above mixed cost %v", name, lb.Cost, mixed.Cost(model))
		}

		bestHomo := mcss.MicroUSD(0)
		found := false
		for _, it := range mcss.InstanceCatalog() {
			single, err := mcss.NewFleet(it)
			if err != nil {
				t.Fatal(err)
			}
			p := planner(single.WithBytesPerMbps(bpm))
			res, err := p.Solve(ctx, w)
			if err != nil {
				continue // type too small for the hottest topic
			}
			if err := p.Verify(w, res.Selection, res.Allocation); err != nil {
				t.Errorf("%s %s verify: %v", name, it.Name, err)
			}
			if c := res.Cost(model); !found || c < bestHomo {
				bestHomo, found = c, true
			}
		}
		if !found {
			t.Fatalf("%s: no feasible homogeneous type", name)
		}
		if mixed.Cost(model) > bestHomo {
			t.Errorf("%s: mixed fleet %v costs more than best homogeneous %v",
				name, mixed.Cost(model), bestHomo)
		}
		t.Logf("%s: mixed %v (mix %v) vs best homogeneous %v",
			name, mixed.Cost(model), mixed.Allocation.InstanceMix(), bestHomo)
	}
}
