package traceio

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// TestPlanEncoderMatchesMarshal: the encoder writes, byte for byte, what
// json.Marshal writes for the oracle's document, for whole plans and for
// plan-begin bodies (the plan without its target), and WritePlan writes
// what json.MarshalIndent writes, plus a newline. The random plans cover
// every omitted or null field, tricky strings and amounts, and the three
// orders a delta's pair lists come in; the last plan is cold-solve sized.
func TestPlanEncoderMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	codec := PlanJournalCodec()
	check := func(name string, p *deploy.Plan) {
		t.Helper()
		before := slices.Clone(p.Diff.Delta.Subscribe)
		got, err := codec.EncodePlan(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := marshalOracle(p)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBytes(t, name, got, want)
		if !slices.Equal(before, p.Diff.Delta.Subscribe) {
			t.Fatalf("%s: encoding reordered the plan's subscribe list", name)
		}
	}
	plans := make([]*deploy.Plan, 0, 301)
	for range 300 {
		plans = append(plans, randomPlan(t, r))
	}
	plans = append(plans, coldSolvePlan(t))
	for i, p := range plans {
		if i%4 == 1 {
			// A plan with its target writes the target, not these tags.
			p.TargetRegions = randomRegions(r)
		}
		check("whole plan", p)
		var file bytes.Buffer
		if err := WritePlan(p, &file); err != nil {
			t.Fatal(err)
		}
		doc, err := planToDoc(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		assertSameBytes(t, "plan file", file.Bytes(), append(want, '\n'))

		body := *p
		body.Target, body.TargetRegions = nil, randomRegions(r)
		if i%3 == 0 {
			// Bodies are not validated: steps only a body can carry.
			body.Steps = append(slices.Clone(body.Steps), randomBodySteps(r)...)
		}
		check("plan-begin body", &body)
	}
}

// assertSameBytes fails with the first differing offset and its context.
func assertSameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	t.Fatalf("%s: %d bytes, json.Marshal writes %d; first difference at byte %d:\ngot:  %q\nwant: %q",
		what, len(got), len(want), i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// Strings and amounts json.Marshal writes in their own way.
var (
	trickyNames = []string{
		"c3.large", "<b>&amp;</b>", `q"uote`, `back\slash`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		"line\u2028para\u2029", "näme-日本-✓", "bad\xff\xfeutf8", "cut\xe2\x80", "\U0001F600 emoji",
	}
	trickyAmounts = []pricing.MicroUSD{
		0, 1, -1, 150_000, -2_500_001, 1_000_000, 123_456_789, pricing.MinMicroUSD, pricing.MaxMicroUSD,
	}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

func randomAmount(r *rand.Rand) pricing.MicroUSD {
	if r.Intn(3) == 0 {
		return pricing.MicroUSD(r.Int63n(2e12) - 1e12)
	}
	return pick(r, trickyAmounts)
}

func randomInstance(r *rand.Rand, name string) pricing.InstanceType {
	it := pricing.InstanceType{Name: name, HourlyRate: randomAmount(r), LinkMbps: r.Int63n(2000) - 5}
	if r.Intn(3) == 0 {
		it.Region = pick(r, trickyNames)
	}
	return it
}

// randomPlan builds a plan that validates, with its target.
func randomPlan(t *testing.T, r *rand.Rand) *deploy.Plan {
	t.Helper()
	w := deploy.EmptyState().Workload
	if r.Intn(8) > 0 {
		var err error
		w, err = tracegen.Random(tracegen.RandomConfig{
			Topics: 1 + r.Intn(40), Subscribers: 1 + r.Intn(60), MaxFollowings: 1 + r.Intn(8), MaxRate: 1 + r.Int63n(5000), Seed: r.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.Intn(3) == 0 {
		var err error
		if w, err = w.WithRegions(randomTags(r, w.NumTopics()), randomTags(r, w.NumSubscribers())); err != nil {
			t.Fatal(err)
		}
	}
	p := &deploy.Plan{
		Version:         deploy.PlanVersion,
		BaseFingerprint: pick(r, trickyNames),
		Tau:             1 + r.Int63n(1000),
		MessageBytes:    1 + r.Int63n(500),
		Model: pricing.Model{
			Instance: randomInstance(r, pick(r, append(trickyNames, ""))),
			Hours:    r.Int63n(1000) - 10,
			PerGB:    randomAmount(r),
		},
		Diff: deploy.Diff{
			Delta: randomDelta(r, w),
			Stats: dynamic.MigrationStats{
				PairsMoved: r.Int63n(1e6), PairsKept: r.Int63n(1e6), VMsBefore: r.Intn(100), VMsAfter: r.Intn(100),
			},
		},
		CostBefore: randomAmount(r),
		CostAfter:  randomAmount(r),
		Target:     deploy.NewState(w, randomAlloc(r, w)),
	}
	if r.Intn(2) == 0 {
		p.Model.CapacityOverrideBytesPerHour = r.Int63n(1e9) - 10
	}
	if n := r.Intn(4); n > 0 {
		types := make([]pricing.InstanceType, n)
		caps := make([]int64, n)
		for i, name := range r.Perm(len(trickyNames))[:n] {
			types[i], caps[i] = randomInstance(r, trickyNames[name]), 1+r.Int63n(1e9)
		}
		var err error
		if p.Fleet, err = pricing.NewFleetWithCapacities(types, caps); err != nil {
			t.Fatal(err)
		}
	}
	switch r.Intn(4) {
	case 0: // no steps; a nil or an empty list
		if r.Intn(2) == 0 {
			p.Steps = []dynamic.Step{}
		}
	default:
		for range 1 + r.Intn(6) {
			p.Steps = append(p.Steps, randomStep(r, w))
		}
	}
	return p
}

func randomTags(r *rand.Rand, n int) []int32 {
	tags := make([]int32, n)
	for i := range tags {
		tags[i] = int32(r.Intn(4))
	}
	return tags
}

// randomEdits returns up to n {topic, subs} entries on w, each topic and
// each subscriber once.
func randomEdits(r *rand.Rand, w *workload.Workload, n int) []core.TopicPlacement {
	if w.NumTopics() == 0 || w.NumSubscribers() == 0 {
		return nil
	}
	var ps []core.TopicPlacement
	for _, tp := range r.Perm(w.NumTopics())[:r.Intn(min(n, w.NumTopics())+1)] {
		subs := r.Perm(w.NumSubscribers())[:1+r.Intn(min(5, w.NumSubscribers()))]
		p := core.TopicPlacement{Topic: workload.TopicID(tp)}
		for _, v := range subs {
			p.Subs = append(p.Subs, workload.SubID(v))
		}
		ps = append(ps, p)
	}
	return ps
}

func randomAlloc(r *rand.Rand, w *workload.Workload) *core.Allocation {
	a := &core.Allocation{}
	for i := range r.Intn(5) {
		a.VMs = append(a.VMs, &core.VM{
			ID:                   i,
			Instance:             randomInstance(r, pick(r, trickyNames)),
			CapacityBytesPerHour: 1 + r.Int63n(1e9),
			Placements:           randomEdits(r, w, 4),
		})
	}
	return a
}

// randomStep returns a step Plan.Validate accepts on w.
func randomStep(r *rand.Rand, w *workload.Workload) dynamic.Step {
	s := dynamic.Step{VM: r.Intn(50)}
	switch r.Intn(3) {
	case 0:
		s.Op, s.Instance, s.Capacity = dynamic.OpBootVM, randomInstance(r, pick(r, trickyNames)), 1+r.Int63n(1e9)
		s.Place = randomEdits(r, w, 3)
	case 1:
		s.Op, s.Remove, s.Place = dynamic.OpReconfigure, randomEdits(r, w, 3), randomEdits(r, w, 3)
		if len(s.Remove) == 0 && len(s.Place) == 0 {
			s.Op = dynamic.OpRetireVM
		}
	default:
		s.Op, s.Remove = dynamic.OpRetireVM, randomEdits(r, w, 3)
	}
	return s
}

// randomBodySteps returns steps that only an unvalidated body carries: a
// boot with zero capacity, fields an op does not write, an unknown op.
func randomBodySteps(r *rand.Rand) []dynamic.Step {
	return []dynamic.Step{
		{Op: dynamic.OpBootVM, VM: 3, Instance: randomInstance(r, "zero")},
		{Op: dynamic.OpReconfigure, VM: 1, Instance: pricing.C3Large, Capacity: 7},
		{Op: dynamic.StepOp(pick(r, trickyNames)), VM: -2, Capacity: 9,
			Place: []core.TopicPlacement{{Topic: 2}, {Topic: 0, Subs: []workload.SubID{4, 1}}}},
	}
}

// randomDelta returns a delta on w's ID ranges (and a little past them)
// whose pair lists are unique pairs in subscriber-major, topic-major or
// shuffled order.
func randomDelta(r *rand.Rand, w *workload.Workload) dynamic.Delta {
	var d dynamic.Delta
	switch r.Intn(3) {
	case 0:
		d.NewTopics = []int64{}
	case 1:
		for range 1 + r.Intn(5) {
			d.NewTopics = append(d.NewTopics, r.Int63n(1e6))
		}
	}
	if r.Intn(2) == 0 {
		d.NewSubscribers = r.Intn(20) - 2
	}
	numT, numV := w.NumTopics()+3, w.NumSubscribers()+3
	switch r.Intn(3) {
	case 0:
		d.RateChanges = map[workload.TopicID]int64{}
	case 1:
		d.RateChanges = map[workload.TopicID]int64{}
		for range 1 + r.Intn(6) {
			d.RateChanges[workload.TopicID(r.Intn(numT))] = r.Int63n(1e5) - 3
		}
	}
	d.Subscribe = randomPairs(r, numT, numV)
	d.Unsubscribe = randomPairs(r, numT, numV)
	return d
}

func randomPairs(r *rand.Rand, numT, numV int) []workload.Pair {
	n := r.Intn(numT * numV / 2)
	if n == 0 {
		if r.Intn(2) == 0 {
			return []workload.Pair{}
		}
		return nil
	}
	ps := make([]workload.Pair, 0, n)
	for _, k := range r.Perm(numT * numV)[:n] {
		ps = append(ps, workload.Pair{Topic: workload.TopicID(k % numT), Sub: workload.SubID(k / numT)})
	}
	switch r.Intn(3) {
	case 0:
		slices.SortFunc(ps, bySub)
	case 1:
		slices.SortFunc(ps, byTopic)
	}
	return ps
}

func randomRegions(r *rand.Rand) *deploy.Regions {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return &deploy.Regions{}
	case 2:
		return &deploy.Regions{Topics: []int32{}, Subscribers: nil}
	}
	return &deploy.Regions{Topics: randomTags(r, r.Intn(6)), Subscribers: randomTags(r, 1+r.Intn(6))}
}

// coldSolvePlan plans perfbench's cold-solve deploy: the Spotify-like
// trace at scale 0.25 (about 123k pairs; 0.02 under -short), solved on
// the calibrated catalog fleet at τ 100 and planned from the empty
// cluster, so its diff subscribes every pair, subscriber-major.
func coldSolvePlan(tb testing.TB) *deploy.Plan {
	tb.Helper()
	scale := 0.25
	if testing.Short() {
		scale = 0.02
	}
	w, err := tracegen.Spotify(tracegen.DefaultSpotifyConfig().Scale(scale))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig(100, experiments.ModelFor(pricing.C3Large, w))
	cfg.Fleet = experiments.FleetFor(w)
	plan, err := deploy.NewPlanner(cfg).Plan(context.Background(), deploy.SpecFromWorkload(w), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// BenchmarkPlanEncode times the journal codec on cold-solve's plan-begin
// body (run with -benchmem): the plan without its target, whose diff
// subscribes every pair of the trace.
func BenchmarkPlanEncode(b *testing.B) {
	body := *coldSolvePlan(b)
	body.Target = nil
	codec := PlanJournalCodec()
	var n int
	b.ResetTimer()
	for range b.N {
		out, err := codec.EncodePlan(&body)
		if err != nil {
			b.Fatal(err)
		}
		n = len(out)
	}
	b.SetBytes(int64(n))
	b.ReportMetric(float64(len(body.Diff.Delta.Subscribe)), "pairs")
}
