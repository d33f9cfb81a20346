package workload

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildSample constructs the running example from the paper's Fig. 1:
// topics t1 (20 ev/h) and t2 (10 ev/h); subscribers v1{t1,t2}, v2{t1,t2},
// v3{t2} — 5 pairs.
func buildSample(t *testing.T) *Workload {
	t.Helper()
	w, err := NewBuilder().
		AddTopic("t1", 20).
		AddTopic("t2", 10).
		AddSubscription("v1", "t1").
		AddSubscription("v1", "t2").
		AddSubscription("v2", "t1").
		AddSubscription("v2", "t2").
		AddSubscription("v3", "t2").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w
}

func TestBuilderBasic(t *testing.T) {
	w := buildSample(t)
	if got, want := w.NumTopics(), 2; got != want {
		t.Errorf("NumTopics = %d, want %d", got, want)
	}
	if got, want := w.NumSubscribers(), 3; got != want {
		t.Errorf("NumSubscribers = %d, want %d", got, want)
	}
	if got, want := w.NumPairs(), int64(5); got != want {
		t.Errorf("NumPairs = %d, want %d", got, want)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRatesAndDegrees(t *testing.T) {
	w := buildSample(t)
	tests := []struct {
		name      string
		topic     TopicID
		rate      int64
		followers int
	}{
		{"t1", 0, 20, 2},
		{"t2", 1, 10, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := w.Rate(tc.topic); got != tc.rate {
				t.Errorf("Rate = %d, want %d", got, tc.rate)
			}
			if got := w.Followers(tc.topic); got != tc.followers {
				t.Errorf("Followers = %d, want %d", got, tc.followers)
			}
			if got := w.TopicName(tc.topic); got != tc.name {
				t.Errorf("TopicName = %q, want %q", got, tc.name)
			}
		})
	}
}

func TestDemandAndTau(t *testing.T) {
	w := buildSample(t)
	tests := []struct {
		sub    SubID
		demand int64
		tau    int64
		tauV   int64
		min    int64
	}{
		{0, 30, 100, 30, 10}, // v1 follows both topics; demand < tau
		{0, 30, 25, 25, 10},  // tau binds
		{2, 10, 100, 10, 10}, // v3 follows only t2
		{2, 10, 5, 5, 10},
	}
	for _, tc := range tests {
		if got := w.Demand(tc.sub); got != tc.demand {
			t.Errorf("Demand(%d) = %d, want %d", tc.sub, got, tc.demand)
		}
		if got := w.TauV(tc.sub, tc.tau); got != tc.tauV {
			t.Errorf("TauV(%d, %d) = %d, want %d", tc.sub, tc.tau, got, tc.tauV)
		}
		if got := w.MinRate(tc.sub); got != tc.min {
			t.Errorf("MinRate(%d) = %d, want %d", tc.sub, got, tc.min)
		}
	}
}

func TestTotals(t *testing.T) {
	w := buildSample(t)
	if got, want := w.TotalEventRate(), int64(30); got != want {
		t.Errorf("TotalEventRate = %d, want %d", got, want)
	}
	// Deliveries: t1×2 followers + t2×3 followers = 40+30 = 70.
	if got, want := w.TotalDeliveryRate(), int64(70); got != want {
		t.Errorf("TotalDeliveryRate = %d, want %d", got, want)
	}
}

func TestSubscriptionCardinality(t *testing.T) {
	w := buildSample(t)
	// v1 receives 30 of 30 total → 100%.
	if got := w.SubscriptionCardinality(0); got != 100 {
		t.Errorf("SC(v1) = %v, want 100", got)
	}
	// v3 receives 10 of 30 → 33.3%.
	got := w.SubscriptionCardinality(2)
	if got < 33.3 || got > 33.4 {
		t.Errorf("SC(v3) = %v, want ~33.33", got)
	}
}

func TestPairsIteration(t *testing.T) {
	w := buildSample(t)
	var pairs []Pair
	w.Pairs(func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs, want 5", len(pairs))
	}
	// Early stop.
	count := 0
	w.Pairs(func(Pair) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop after %d pairs, want 2", count)
	}
}

func TestTopicSubscriberCSRConsistency(t *testing.T) {
	w := buildSample(t)
	// Every (v,t) edge must appear exactly once in the reverse CSR.
	fwd := map[Pair]int{}
	w.Pairs(func(p Pair) bool { fwd[p]++; return true })
	rev := map[Pair]int{}
	for tid := 0; tid < w.NumTopics(); tid++ {
		for _, v := range w.Subscribers(TopicID(tid)) {
			rev[Pair{Topic: TopicID(tid), Sub: v}]++
		}
	}
	if len(fwd) != len(rev) {
		t.Fatalf("forward has %d edges, reverse has %d", len(fwd), len(rev))
	}
	for p, n := range fwd {
		if n != 1 || rev[p] != 1 {
			t.Errorf("edge %v: forward %d reverse %d, want 1/1", p, n, rev[p])
		}
	}
}

func TestBuilderDeduplicatesAndDropsEmpty(t *testing.T) {
	w, err := NewBuilder().
		AddTopic("a", 5).
		AddTopic("unused", 9).
		AddSubscriber("lonely").
		AddSubscription("v", "a").
		AddSubscription("v", "a"). // duplicate
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := w.NumTopics(); got != 1 {
		t.Errorf("NumTopics = %d, want 1 (unused topic dropped)", got)
	}
	if got := w.NumSubscribers(); got != 1 {
		t.Errorf("NumSubscribers = %d, want 1 (lonely dropped)", got)
	}
	if got := w.NumPairs(); got != 1 {
		t.Errorf("NumPairs = %d, want 1 (duplicate ignored)", got)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderRateOverwrite(t *testing.T) {
	w, err := NewBuilder().
		AddSubscription("v", "a"). // auto-creates topic a with rate 1
		AddTopic("a", 42).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := w.Rate(0); got != 42 {
		t.Errorf("Rate = %d, want 42", got)
	}
}

func TestFromCSRValidation(t *testing.T) {
	tests := []struct {
		name      string
		rates     []int64
		subOff    []int64
		subTopics []TopicID
		wantErr   bool
	}{
		{"empty", nil, nil, nil, false},
		{"good", []int64{1}, []int64{0, 1}, []TopicID{0}, false},
		{"bad last offset", []int64{1}, []int64{0, 2}, []TopicID{0}, true},
		{"bad first offset", []int64{1}, []int64{1, 1}, []TopicID{0}, true},
		{"non-monotone", []int64{1, 2}, []int64{0, 2, 1}, []TopicID{0, 1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromCSR(tc.rates, tc.subOff, tc.subTopics, nil, nil)
			if (err != nil) != tc.wantErr {
				t.Errorf("FromCSR err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

// TestFromCSRSortsRows: a row that arrives out of order is sorted in
// place, so Topics is ascending whatever the input order, and the
// topic-major view lists the same pairs; rows in order stay as they are.
func TestFromCSRSortsRows(t *testing.T) {
	subTopics := []TopicID{1, 0, 2, 0, 2, 1, 1}
	w, err := FromCSR([]int64{5, 6, 7}, []int64{0, 2, 3, 6, 7}, subTopics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]TopicID{{0, 1}, {2}, {0, 1, 2}, {1}}
	for v, ts := range want {
		if got := w.Topics(SubID(v)); !slices.Equal(got, ts) {
			t.Errorf("subscriber %d follows %v, want %v", v, got, ts)
		}
	}
	if !slices.Equal(subTopics, []TopicID{0, 1, 2, 0, 1, 2, 1}) {
		t.Errorf("rows not sorted in place: %v", subTopics)
	}
	for topic, subs := range [][]SubID{{0, 2}, {0, 2, 3}, {1, 2}} {
		if got := w.Subscribers(TopicID(topic)); !slices.Equal(got, subs) {
			t.Errorf("topic %d has subscribers %v, want %v", topic, got, subs)
		}
	}
	if _, err := FromCSR([]int64{5, 6}, []int64{0, 3}, []TopicID{1, 9, 0}, nil, nil); err == nil ||
		err.Error() != "workload: subscription 1 references topic 9 of 2" {
		t.Errorf("out-of-range topic in an unsorted row: err = %v", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	// Rate 0.
	w, err := FromCSR([]int64{0}, []int64{0, 1}, []TopicID{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); !errors.Is(err, ErrRateNotPositive) {
		t.Errorf("Validate = %v, want ErrRateNotPositive", err)
	}

	// Orphan topic (exists, never referenced).
	w, err = FromCSR([]int64{1, 1}, []int64{0, 1}, []TopicID{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); !errors.Is(err, ErrOrphanTopic) {
		t.Errorf("Validate = %v, want ErrOrphanTopic", err)
	}

	// Duplicate pair.
	w, err = FromCSR([]int64{1}, []int64{0, 2}, []TopicID{0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); !errors.Is(err, ErrDuplicatePair) {
		t.Errorf("Validate = %v, want ErrDuplicatePair", err)
	}

	// Empty subscription list.
	w, err = FromCSR([]int64{1}, []int64{0, 0, 1}, []TopicID{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); !errors.Is(err, ErrEmptySubscription) {
		t.Errorf("Validate = %v, want ErrEmptySubscription", err)
	}

	// Out-of-range topic reference: FromCSR must reject it outright, and
	// Validate must also catch it on a hand-assembled workload.
	if _, err := FromCSR([]int64{1}, []int64{0, 1}, []TopicID{5}, nil, nil); err == nil {
		t.Error("FromCSR accepted out-of-range topic reference")
	}
	w = &Workload{rates: []int64{1}, subOff: []int64{0, 1}, subTopics: []TopicID{5}}
	if err := w.Validate(); !errors.Is(err, ErrTopicOutOfRange) {
		t.Errorf("Validate = %v, want ErrTopicOutOfRange", err)
	}
}

func TestSynthesizedNames(t *testing.T) {
	w, err := FromCSR([]int64{7}, []int64{0, 1}, []TopicID{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.TopicName(0); got != "t0" {
		t.Errorf("TopicName = %q, want t0", got)
	}
	if got := w.SubscriberName(0); got != "v0" {
		t.Errorf("SubscriberName = %q, want v0", got)
	}
}

// randomWorkload builds a random valid workload for property tests.
func randomWorkload(rng *rand.Rand, maxTopics, maxSubs, maxDeg int) *Workload {
	numT := 1 + rng.Intn(maxTopics)
	rates := make([]int64, numT)
	for i := range rates {
		rates[i] = 1 + rng.Int63n(1000)
	}
	numV := 1 + rng.Intn(maxSubs)
	subOff := make([]int64, 1, numV+1)
	var subTopics []TopicID
	for v := 0; v < numV; v++ {
		deg := 1 + rng.Intn(maxDeg)
		if deg > numT {
			deg = numT
		}
		perm := rng.Perm(numT)[:deg]
		for _, t := range perm {
			subTopics = append(subTopics, TopicID(t))
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	w, err := FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		panic(err)
	}
	return w
}

func TestPropertyCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWorkload(rng, 30, 50, 10)
		// Reverse CSR must contain exactly the forward pairs.
		var n int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			for _, v := range w.Subscribers(TopicID(tid)) {
				found := false
				for _, tt := range w.Topics(v) {
					if tt == TopicID(tid) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
				n++
			}
		}
		return n == w.NumPairs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTauVNeverExceedsDemand(t *testing.T) {
	f := func(seed int64, tau uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWorkload(rng, 20, 40, 8)
		for v := 0; v < w.NumSubscribers(); v++ {
			tv := w.TauV(SubID(v), int64(tau))
			if tv > w.Demand(SubID(v)) || tv > int64(tau) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeliveryRateIsPairRateSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWorkload(rng, 20, 40, 8)
		var want int64
		w.Pairs(func(p Pair) bool {
			want += w.Rate(p.Topic)
			return true
		})
		return w.TotalDeliveryRate() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWithRegions(t *testing.T) {
	w := buildSample(t) // 2 topics, 3 subscribers

	// Region-agnostic accessors default to the home region.
	if w.HasRegions() {
		t.Fatal("fresh workload claims regions")
	}
	if w.TopicRegion(0) != 0 || w.SubscriberRegion(2) != 0 {
		t.Fatal("region-agnostic accessors must report the home region")
	}

	tagged, err := w.WithRegions([]int32{1, 0}, []int32{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !tagged.HasRegions() || w.HasRegions() {
		t.Fatal("WithRegions must tag the copy and leave the receiver untouched")
	}
	if tagged.TopicRegion(0) != 1 || tagged.TopicRegion(1) != 0 {
		t.Fatalf("topic regions %d/%d", tagged.TopicRegion(0), tagged.TopicRegion(1))
	}
	if tagged.SubscriberRegion(0) != 0 || tagged.SubscriberRegion(1) != 2 || tagged.SubscriberRegion(2) != 1 {
		t.Fatal("subscriber regions lost")
	}
	// The copy shares everything but the tags.
	if tagged.NumPairs() != w.NumPairs() || tagged.TotalEventRate() != w.TotalEventRate() {
		t.Fatal("WithRegions changed the workload shape")
	}

	for _, tc := range []struct {
		name   string
		topics []int32
		subs   []int32
	}{
		{"short topic slice", []int32{1}, []int32{0, 0, 0}},
		{"long sub slice", []int32{0, 0}, []int32{0, 0, 0, 0}},
		{"negative topic region", []int32{-1, 0}, []int32{0, 0, 0}},
		{"negative sub region", []int32{0, 0}, []int32{0, -3, 0}},
	} {
		if _, err := w.WithRegions(tc.topics, tc.subs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
