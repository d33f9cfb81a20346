package dynamic

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// randomDelta draws a churn delta touching roughly frac of w's pairs:
// ~45% unsubscribes of existing interests, ~45% subscribes of fresh
// interests, plus rate changes on a handful of topics. Occasionally it also
// appends a new topic or subscriber to exercise the growth paths.
func randomDelta(rng *rand.Rand, w *workload.Workload, frac float64, grow bool) Delta {
	var d Delta
	nOps := int(float64(w.NumPairs()) * frac)
	if nOps < 2 {
		nOps = 2
	}
	unsubBudget := nOps / 2
	subBudget := nOps - unsubBudget

	seen := make(map[workload.Pair]bool)
	for tries := 0; tries < 20*nOps && (unsubBudget > 0 || subBudget > 0); tries++ {
		v := workload.SubID(rng.Intn(w.NumSubscribers()))
		t := workload.TopicID(rng.Intn(w.NumTopics()))
		pr := workload.Pair{Topic: t, Sub: v}
		if seen[pr] {
			continue
		}
		ts := w.Topics(v)
		if hasTopic(ts, t) {
			// Keep at least one interest so τ_v stays reachable.
			if unsubBudget > 0 && len(ts) > 1 {
				seen[pr] = true
				d.Unsubscribe = append(d.Unsubscribe, pr)
				unsubBudget--
			}
		} else if subBudget > 0 {
			seen[pr] = true
			d.Subscribe = append(d.Subscribe, pr)
			subBudget--
		}
	}
	nRate := w.NumTopics() / 10
	if nRate < 1 {
		nRate = 1
	}
	d.RateChanges = make(map[workload.TopicID]int64, nRate)
	for len(d.RateChanges) < nRate {
		t := workload.TopicID(rng.Intn(w.NumTopics()))
		old := w.Rate(t)
		nr := old/2 + 1 + rng.Int63n(old+1)
		// Cap the random walk so no topic outgrows every fleet type (the
		// test capacity is 500 bytes/hour at 1 byte per message — a topic
		// needs 2·rate on a fresh VM).
		if nr > 120 {
			nr = 120
		}
		d.RateChanges[t] = nr
	}
	if grow && rng.Intn(4) == 0 {
		d.NewTopics = []int64{1 + rng.Int63n(50)}
		d.NewSubscribers = 1
		// The new subscriber follows the new topic plus one existing one.
		nt := workload.TopicID(w.NumTopics())
		nv := workload.SubID(w.NumSubscribers())
		d.Subscribe = append(d.Subscribe,
			workload.Pair{Topic: nt, Sub: nv},
			workload.Pair{Topic: workload.TopicID(rng.Intn(w.NumTopics())), Sub: nv})
	}
	sortPairs(d.Subscribe)
	sortPairs(d.Unsubscribe)
	return d
}

func hasTopic(ts []workload.TopicID, t workload.TopicID) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// TestPreviewIncrementalEmptyDeltaIsFingerprintNoOp pins the empty-delta
// fast path: the returned state is the provisioner's own (same pointers),
// so the fingerprint is bit-identical and nothing moves.
func TestPreviewIncrementalEmptyDeltaIsFingerprintNoOp(t *testing.T) {
	w := sampleWorkload(t, 11)
	p, err := New(w, testConfig(30, 500))
	if err != nil {
		t.Fatal(err)
	}
	before := StateFingerprint(p.Workload(), p.Allocation())
	next, res, stats, err := p.PreviewIncremental(context.Background(), Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if next != p.Workload() || res.Allocation != p.Allocation() {
		t.Error("empty delta must return the provisioner's own state")
	}
	if got := StateFingerprint(next, res.Allocation); got != before {
		t.Errorf("fingerprint changed on empty delta: %s → %s", before, got)
	}
	if stats.PairsMoved != 0 || stats.PairsKept != p.Selection().NumPairs() {
		t.Errorf("stats = %+v, want zero movement with all pairs kept", stats)
	}
	if stats.CostBefore != stats.CostAfter {
		t.Errorf("cost changed on empty delta: %v → %v", stats.CostBefore, stats.CostAfter)
	}
	// And through UpdateIncremental the adopted state stays the same object.
	if _, err := p.UpdateIncremental(context.Background(), Delta{}); err != nil {
		t.Fatal(err)
	}
	if got := StateFingerprint(p.Workload(), p.Allocation()); got != before {
		t.Errorf("fingerprint changed after UpdateIncremental: %s → %s", before, got)
	}
}

// TestUpdateIncrementalFullReplacementWithinRegretBound drives a heavy
// delta (every topic re-rated, a large share of pairs churned) through the
// incremental path and checks its cost against a full re-solve of the same
// workload: measured against the shared lower bound, the incremental answer
// may exceed its base regret by at most the policy threshold.
func TestUpdateIncrementalFullReplacementWithinRegretBound(t *testing.T) {
	w := sampleWorkload(t, 12)
	cfg := testConfig(30, 500)
	rng := rand.New(rand.NewSource(99))

	pInc, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pFull, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := randomDelta(rng, w, 0.5, false)
	for t := 0; t < w.NumTopics(); t++ { // re-rate everything
		id := workload.TopicID(t)
		if _, ok := d.RateChanges[id]; !ok {
			d.RateChanges[id] = w.Rate(id) + 1 + rng.Int63n(20)
		}
	}

	stats, err := pInc.UpdateIncremental(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pFull.Update(d); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAllocation(pInc.Workload(), pInc.Selection(), pInc.Allocation(), cfg); err != nil {
		t.Fatalf("incremental allocation fails verification: %v", err)
	}

	lb, err := core.LowerBound(pInc.Workload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	incRegret := (float64(pInc.Cost()) - float64(lb.Cost)) / float64(lb.Cost)
	if !stats.Fallback && incRegret > stats.BaseRegretFrac+0.02+1e-9 {
		t.Errorf("incremental regret %.4f exceeds base %.4f + 0.02", incRegret, stats.BaseRegretFrac)
	}
	fullRegret := (float64(pFull.Cost()) - float64(lb.Cost)) / float64(lb.Cost)
	if incRegret > fullRegret+stats.BaseRegretFrac+0.02+1e-9 {
		t.Errorf("incremental regret %.4f not within bound of full re-solve regret %.4f", incRegret, fullRegret)
	}
}

// TestUpdateIncrementalRandomChurnSequence is the acceptance property: 500
// random deltas applied in sequence, every intermediate allocation
// verification-clean and every epoch's regret within the policy threshold
// of its base (a fallback re-solve resets the base, so the bound is an
// invariant, not a best-effort).
func TestUpdateIncrementalRandomChurnSequence(t *testing.T) {
	steps := 500
	if testing.Short() {
		steps = 120
	}
	w := sampleWorkload(t, 13)
	cfg := testConfig(30, 500)
	p, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))
	fallbacks := 0
	for i := 0; i < steps; i++ {
		d := randomDelta(rng, p.Workload(), 0.05, true)
		stats, err := p.UpdateIncremental(context.Background(), d)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if stats.Fallback {
			// The re-solve resets the base; RegretFrac is the new floor,
			// not a drift to bound.
			fallbacks++
		} else if stats.RegretFrac > stats.BaseRegretFrac+0.02+1e-9 {
			t.Fatalf("step %d: regret %.4f exceeds base %.4f + threshold",
				i, stats.RegretFrac, stats.BaseRegretFrac)
		}
		if err := core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if fallbacks == steps {
		t.Error("every step fell back to a full re-solve — the incremental path never held")
	}
	t.Logf("%d/%d steps fell back to a full re-solve", fallbacks, steps)
}

// TestApplyDeltaFastMatchesApplyDelta pins the CSR-patching ApplyDelta
// byte-identical to the test-local map-based reference (applyDeltaMaps)
// across randomized deltas, including growth, re-subscribes of existing
// interests, and unsubscribes of absent pairs.
func TestApplyDeltaFastMatchesApplyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for c := 0; c < 200; c++ {
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        5 + rng.Intn(15),
			Subscribers:   10 + rng.Intn(40),
			MaxFollowings: 1 + rng.Intn(5),
			MaxRate:       60,
			Seed:          int64(c),
		})
		if err != nil {
			t.Fatal(err)
		}
		d := randomDelta(rng, w, 0.3, true)
		// Unsubscribes of absent-but-in-range pairs are documented no-ops;
		// splice some in (avoiding pairs the delta already names).
		named := make(map[workload.Pair]bool)
		for _, pr := range d.Subscribe {
			named[pr] = true
		}
		for _, pr := range d.Unsubscribe {
			named[pr] = true
		}
		for tries := 0; tries < 10; tries++ {
			pr := workload.Pair{
				Topic: workload.TopicID(rng.Intn(w.NumTopics())),
				Sub:   workload.SubID(rng.Intn(w.NumSubscribers())),
			}
			if !named[pr] && !hasTopic(w.Topics(pr.Sub), pr.Topic) {
				named[pr] = true
				d.Unsubscribe = append(d.Unsubscribe, pr)
				break
			}
		}
		sortPairs(d.Unsubscribe)

		want, err := applyDeltaMaps(w, d)
		if err != nil {
			t.Fatalf("case %d: applyDeltaMaps: %v", c, err)
		}
		got, err := ApplyDelta(w, d)
		if err != nil {
			t.Fatalf("case %d: ApplyDelta: %v", c, err)
		}
		if got.NumTopics() != want.NumTopics() || got.NumSubscribers() != want.NumSubscribers() {
			t.Fatalf("case %d: shape %d/%d != %d/%d", c,
				got.NumTopics(), got.NumSubscribers(), want.NumTopics(), want.NumSubscribers())
		}
		for tt := 0; tt < want.NumTopics(); tt++ {
			if got.Rate(workload.TopicID(tt)) != want.Rate(workload.TopicID(tt)) {
				t.Fatalf("case %d: topic %d rate %d != %d", c, tt,
					got.Rate(workload.TopicID(tt)), want.Rate(workload.TopicID(tt)))
			}
		}
		for v := 0; v < want.NumSubscribers(); v++ {
			g, x := got.Topics(workload.SubID(v)), want.Topics(workload.SubID(v))
			if len(g) != len(x) {
				t.Fatalf("case %d: subscriber %d has %d interests, want %d (%v vs %v)", c, v, len(g), len(x), g, x)
			}
			for k := range g {
				if g[k] != x[k] {
					t.Fatalf("case %d: subscriber %d interests %v != %v", c, v, g, x)
				}
			}
		}
	}
}

// applyDeltaMaps is the reference ApplyDelta: it rebuilds every
// subscriber's interests as a set, applies the pair edits, and re-sorts —
// obviously correct, and O(pairs) map work per call.
func applyDeltaMaps(w *workload.Workload, d Delta) (*workload.Workload, error) {
	if err := d.Validate(w.NumTopics(), w.NumSubscribers()); err != nil {
		return nil, err
	}
	numT := w.NumTopics() + len(d.NewTopics)
	numV := w.NumSubscribers() + d.NewSubscribers

	rates := make([]int64, numT)
	copy(rates, w.Rates())
	copy(rates[w.NumTopics():], d.NewTopics)
	for t, r := range d.RateChanges {
		rates[t] = r
	}

	interests := make([]map[workload.TopicID]bool, numV)
	for v := 0; v < w.NumSubscribers(); v++ {
		set := make(map[workload.TopicID]bool, w.Followings(workload.SubID(v)))
		for _, t := range w.Topics(workload.SubID(v)) {
			set[t] = true
		}
		interests[v] = set
	}
	for v := w.NumSubscribers(); v < numV; v++ {
		interests[v] = make(map[workload.TopicID]bool)
	}
	for _, pr := range d.Subscribe {
		interests[pr.Sub][pr.Topic] = true
	}
	for _, pr := range d.Unsubscribe {
		delete(interests[pr.Sub], pr.Topic)
	}

	subOff := make([]int64, 1, numV+1)
	var subTopics []workload.TopicID
	for _, set := range interests {
		start := len(subTopics)
		for t := range set {
			subTopics = append(subTopics, t)
		}
		slices.Sort(subTopics[start:])
		subOff = append(subOff, int64(len(subTopics)))
	}
	return workload.FromCSR(rates, subOff, subTopics, nil, nil)
}

// sortPairs orders pairs subscriber-major then topic, the canonical order
// the tests compare deltas in.
func sortPairs(ps []workload.Pair) {
	slices.SortFunc(ps, func(a, b workload.Pair) int {
		if a.Sub != b.Sub {
			return cmp.Compare(a.Sub, b.Sub)
		}
		return cmp.Compare(a.Topic, b.Topic)
	})
}

// TestEnsureIndexRebuildsAfterExternalAdopt checks that a state mutation
// the index did not see (Adopt of a foreign result) triggers a clean
// reindex instead of stale incremental answers.
func TestEnsureIndexRebuildsAfterExternalAdopt(t *testing.T) {
	w := sampleWorkload(t, 14)
	cfg := testConfig(30, 500)
	p, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the index.
	if _, err := p.UpdateIncremental(context.Background(), Delta{}); err != nil {
		t.Fatal(err)
	}
	// Adopt a freshly solved copy (different allocation pointer).
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Adopt(w, res)
	d := randomDelta(rand.New(rand.NewSource(5)), w, 0.1, false)
	if _, err := p.UpdateIncremental(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg); err != nil {
		t.Fatalf("post-adopt incremental update fails verification: %v", err)
	}
}
