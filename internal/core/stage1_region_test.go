package core_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// TestGSPPrefersHomeTopics: under a multi-region topology GSP scans each
// subscriber's interests home region first, and its fallback prefers a
// home topic on a rate tie but never over a smaller rate. Without the
// topology the same workload gets the paper's GSP.
func TestGSPPrefersHomeTopics(t *testing.T) {
	type topic struct {
		name   string
		rate   int64
		region int32
	}
	topics := []topic{
		{"r0-60", 60, 0}, {"r1-60", 60, 1}, {"r1-70", 70, 1}, {"r0-70", 70, 0},
		{"r1-20", 20, 1}, {"r1-90", 90, 1}, {"r0-80", 80, 0}, {"r0-60b", 60, 0},
	}
	subs := []struct {
		name      string
		region    int32
		follows   []string
		home, gsp []string // selections with and without the topology
	}{
		// Equal rates: the home topic wins over a lower topic ID.
		{"near", 1, []string{"r0-60", "r1-60"}, []string{"r1-60"}, []string{"r0-60"}},
		{"west", 0, []string{"r1-60", "r0-60b"}, []string{"r0-60b"}, []string{"r1-60"}},
		// Nothing else fits after r1-20: the fallback ties at rate 70 and
		// takes the home topic, where GSP takes the last skipped.
		{"tie", 1, []string{"r1-70", "r0-70", "r1-20"}, []string{"r1-70", "r1-20"}, []string{"r0-70", "r1-20"}},
		// The smaller rate beats home in the fallback.
		{"cheaper", 1, []string{"r1-90", "r0-80"}, []string{"r0-80"}, []string{"r0-80"}},
	}
	b := workload.NewBuilder()
	for _, tp := range topics {
		b.AddTopic(tp.name, tp.rate)
	}
	for _, s := range subs {
		for _, name := range s.follows {
			b.AddSubscription(s.name, name)
		}
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Every topic and subscriber is used, so IDs follow the order of
	// addition.
	topicRegions := make([]int32, len(topics))
	for i, tp := range topics {
		topicRegions[i] = tp.region
	}
	subRegions := make([]int32, len(subs))
	for v, s := range subs {
		subRegions[v] = s.region
	}
	w, err := base.WithRegions(topicRegions, subRegions)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		cfg  core.Config
		want func(i int) []string
	}{
		{"two regions", core.Config{Tau: 60, Topology: core.SyntheticTopology(2)}, func(i int) []string { return subs[i].home }},
		{"no topology", core.Config{Tau: 60}, func(i int) []string { return subs[i].gsp }},
		{"one region", core.Config{Tau: 60, Topology: core.SyntheticTopology(1)}, func(i int) []string { return subs[i].gsp }},
	} {
		sel, err := core.GreedySelectPairsContext(context.Background(), w, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range subs {
			var got []string
			for _, tp := range sel.SelectedTopics(workload.SubID(i)) {
				got = append(got, w.TopicName(tp))
			}
			want := slices.Clone(tc.want(i))
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s selected %v, want %v", tc.name, s.name, got, want)
			}
		}
	}
}

// TestParallelGSPRegionalMatchesSerial: the home-first order is per
// subscriber, so sharding a tagged workload under a multi-region
// topology selects exactly what the serial scan selects.
func TestParallelGSPRegionalMatchesSerial(t *testing.T) {
	base, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.03))
	if err != nil {
		t.Fatal(err)
	}
	w, err := tracegen.TagRegions(base, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	net := core.SyntheticTopology(3)
	gsp := func(tau int64, topology *core.Topology, parallelism int) *core.Selection {
		t.Helper()
		sel, err := core.GreedySelectPairsContext(context.Background(), w,
			core.Config{Tau: tau, Topology: topology, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	same := func(a, b *core.Selection) bool {
		for v := 0; v < w.NumSubscribers(); v++ {
			if !slices.Equal(a.SelectedTopics(workload.SubID(v)), b.SelectedTopics(workload.SubID(v))) {
				return false
			}
		}
		return a.NumPairs() == b.NumPairs()
	}
	for _, tau := range []int64{10, 100, 1000} {
		serial := gsp(tau, net, 1)
		if !serial.Satisfied(tau) {
			t.Fatalf("τ=%d: regional selection unsatisfied", tau)
		}
		if same(serial, gsp(tau, nil, 1)) {
			t.Errorf("τ=%d: the topology changed no selection", tau)
		}
		for _, workers := range []int{2, -1} {
			if !same(serial, gsp(tau, net, workers)) {
				t.Errorf("τ=%d workers=%d: parallel differs from serial", tau, workers)
			}
		}
	}
}

// TestSolveRejectsRegionsBeyondTopology: a tag at or past the topology's
// region count is an error naming the first such topic, else subscriber,
// instead of an index panic in Stage 2's routing. A single-region
// topology reads no tags.
func TestSolveRejectsRegionsBeyondTopology(t *testing.T) {
	base, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	five, err := tracegen.TagRegions(base, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	subOnly, err := five.WithRegions(make([]int32, five.NumTopics()), five.SubscriberRegions())
	if err != nil {
		t.Fatal(err)
	}
	net := core.SyntheticTopology(3)
	model := pricing.NewModel(pricing.C3Large)
	fleet, err := core.RegionalFleet(model.SingleFleet(), net)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(100, model)
	cfg.Fleet, cfg.Topology, cfg.LatencySLOMillis = fleet, net, 200

	for _, tc := range []struct {
		name string
		w    *workload.Workload
		want string
	}{
		{"topic", five, "core: topic "},
		{"subscriber", subOnly, "core: subscriber "},
	} {
		_, err := core.SolveContext(context.Background(), tc.w, cfg)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || !strings.Contains(err.Error(), "3 regions") {
			t.Errorf("%s: err = %v, want %q… naming the topology's 3 regions", tc.name, err, tc.want)
		}
		if errors.Is(err, core.ErrInfeasible) {
			t.Errorf("%s: a bad tag is not an infeasible instance: %v", tc.name, err)
		}
	}

	one := core.DefaultConfig(100, model)
	one.Topology = core.SyntheticTopology(1)
	if _, err := core.SolveContext(context.Background(), five, one); err != nil {
		t.Errorf("single-region topology: %v", err)
	}
}

// TestEvaluatorsRejectRegionsBeyondTopology: the egress bill and the
// latency report run the check SolveContext runs, so an allocation solved
// without a topology and priced under one with fewer regions than its tags
// is the same error, not an index panic ("index out of range [12] with
// length 9" in EgressPerHour). A single-region topology reads no tags.
// Likewise a VM whose instance type names a region the topology lacks is
// an error naming the type and the tag, not a VM in the home region, and
// so is such a fleet type in a solve; an untagged type stays region 0.
func TestEvaluatorsRejectRegionsBeyondTopology(t *testing.T) {
	base, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	five, err := tracegen.TagRegions(base, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(100, pricing.NewModel(pricing.C3Large))
	res, err := core.SolveContext(context.Background(), five, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := core.SyntheticTopology(3)
	regional := cfg
	regional.Topology = net
	_, want := core.SolveContext(context.Background(), five, regional)
	if want == nil {
		t.Fatal("SolveContext accepted 5-region tags under a 3-region topology")
	}
	if _, _, err := core.EgressPerHour(net, five, res.Allocation, cfg.MessageBytes); fmt.Sprint(err) != want.Error() {
		t.Errorf("EgressPerHour: err = %v, want %v", err, want)
	}
	if _, err := core.EvalLatency(net, five, res.Allocation, cfg.MessageBytes, 200); fmt.Sprint(err) != want.Error() {
		t.Errorf("EvalLatency: err = %v, want %v", err, want)
	}
	one := core.SyntheticTopology(1)
	if _, _, err := core.EgressPerHour(one, five, res.Allocation, cfg.MessageBytes); err != nil {
		t.Errorf("EgressPerHour, single region: %v", err)
	}
	if rep, err := core.EvalLatency(one, five, res.Allocation, cfg.MessageBytes, 200); err != nil || rep.Pairs != res.Selection.NumPairs() {
		t.Errorf("EvalLatency, single region: %d pairs, err %v; want %d pairs", rep.Pairs, err, res.Selection.NumPairs())
	}

	// VMs of SyntheticTopology(3)'s regional fleet (regions r0, r1, r2)
	// priced under a topology whose regions are x, y and z.
	three, err := tracegen.TagRegions(base, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	regional.Topology = core.SyntheticTopology(3)
	if regional.Fleet, err = core.RegionalFleet(cfg.Model.SingleFleet(), regional.Topology); err != nil {
		t.Fatal(err)
	}
	tagged, err := core.SolveContext(context.Background(), three, regional)
	if err != nil {
		t.Fatal(err)
	}
	xyz, err := core.NewTopology([]string{"x", "y", "z"},
		[][]int64{{0, 40, 80}, {40, 0, 40}, {80, 40, 0}},
		[][]pricing.MicroUSD{{0, 20_000, 20_000}, {20_000, 0, 20_000}, {20_000, 20_000, 0}})
	if err != nil {
		t.Fatal(err)
	}
	it := tagged.Allocation.VMs[0].Instance
	wantVM := fmt.Sprintf("core: instance type %q is in region %q, which the topology does not name", it.Name, it.Region)
	if _, _, err := core.EgressPerHour(xyz, three, tagged.Allocation, cfg.MessageBytes); fmt.Sprint(err) != wantVM {
		t.Errorf("EgressPerHour, VM region beyond the topology: err = %v, want %s", err, wantVM)
	}
	if _, err := core.EvalLatency(xyz, three, tagged.Allocation, cfg.MessageBytes, 200); fmt.Sprint(err) != wantVM {
		t.Errorf("EvalLatency, VM region beyond the topology: err = %v, want %s", err, wantVM)
	}
	regional.Topology = xyz
	if _, err := core.SolveContext(context.Background(), three, regional); err == nil || !strings.Contains(err.Error(), "which the topology does not name") {
		t.Errorf("SolveContext with fleet regions beyond the topology: err = %v", err)
	}
	untagged, err := core.SolveContext(context.Background(), three, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.EvalLatency(xyz, three, untagged.Allocation, cfg.MessageBytes, 200); err != nil {
		t.Errorf("EvalLatency, untagged VMs: %v", err)
	}
}
