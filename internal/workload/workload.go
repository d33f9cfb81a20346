// Package workload models topic-based publish/subscribe workloads for
// social-interaction systems in the style of the ICDCS 2014 MCSS paper.
//
// A workload is a bipartite relation between topics (publishing users) and
// subscribers (following users), together with a per-topic event rate. Both
// sides are addressed with dense integer identifiers so that solver inner
// loops are array walks rather than map lookups. The adjacency is stored
// twice in CSR (compressed sparse row) form: subscriber→topics for Stage 1
// pair selection, and topic→subscribers for Stage 2 packing.
//
// Event rates are integer events per hour. Conversion to bytes (via a message
// size) and to money is the responsibility of the pricing and core packages;
// the workload itself is unit-agnostic beyond "events per hour".
package workload

import (
	"errors"
	"fmt"
	"slices"
)

// TopicID densely identifies a topic within one Workload.
type TopicID int32

// SubID densely identifies a subscriber within one Workload.
type SubID int32

// Pair is a topic–subscriber pair, the granularity at which MCSS selects and
// allocates load.
type Pair struct {
	Topic TopicID
	Sub   SubID
}

// Workload is an immutable pub/sub workload: topics with event rates and the
// subscription relation. Construct one with a Builder or FromCSR; the zero
// value is a valid empty workload.
type Workload struct {
	rates []int64 // events/hour, indexed by TopicID

	// Subscriber → topics, CSR.
	subOff    []int64
	subTopics []TopicID

	// Topic → subscribers, CSR (derived from the above).
	topicOff  []int64
	topicSubs []SubID

	// Optional human-readable names; nil when not supplied.
	topicNames []string
	subNames   []string

	// Optional region tags (indices into a Topology's region list); nil
	// when the workload is region-agnostic. A topic's region is where its
	// publisher lives; a subscriber's region is where deliveries terminate.
	topicRegions []int32
	subRegions   []int32
}

// NumTopics reports the number of topics.
func (w *Workload) NumTopics() int { return len(w.rates) }

// NumSubscribers reports the number of subscribers.
func (w *Workload) NumSubscribers() int {
	if len(w.subOff) == 0 {
		return 0
	}
	return len(w.subOff) - 1
}

// NumPairs reports the number of topic–subscriber pairs.
func (w *Workload) NumPairs() int64 { return int64(len(w.subTopics)) }

// Rate reports the event rate (events/hour) of topic t.
func (w *Workload) Rate(t TopicID) int64 { return w.rates[t] }

// Rates returns the per-topic event rate slice, indexed by TopicID. The
// returned slice must not be modified.
func (w *Workload) Rates() []int64 { return w.rates }

// Topics returns the topics subscriber v is interested in (T_v). The returned
// slice aliases internal storage and must not be modified.
func (w *Workload) Topics(v SubID) []TopicID {
	return w.subTopics[w.subOff[v]:w.subOff[v+1]]
}

// Subscribers returns the subscribers of topic t (V_t). The returned slice
// aliases internal storage and must not be modified.
func (w *Workload) Subscribers(t TopicID) []SubID {
	return w.topicSubs[w.topicOff[t]:w.topicOff[t+1]]
}

// Followers reports |V_t|, the number of subscribers of topic t.
func (w *Workload) Followers(t TopicID) int {
	return int(w.topicOff[t+1] - w.topicOff[t])
}

// Followings reports |T_v|, the number of topics subscriber v follows.
func (w *Workload) Followings(v SubID) int {
	return int(w.subOff[v+1] - w.subOff[v])
}

// Demand reports Σ_{t∈T_v} ev_t, the total event rate subscriber v is
// subscribed to.
func (w *Workload) Demand(v SubID) int64 {
	var sum int64
	for _, t := range w.Topics(v) {
		sum += w.rates[t]
	}
	return sum
}

// TauV reports the subscriber-specific satisfaction threshold
// τ_v = min(τ, Σ_{t∈T_v} ev_t) from the paper's §II-B.
func (w *Workload) TauV(v SubID, tau int64) int64 {
	if d := w.Demand(v); d < tau {
		return d
	}
	return tau
}

// MinRate reports min_{t∈T_v} ev_t, used by the lower bound (Alg. 5). It
// returns 0 for a subscriber with no subscriptions.
func (w *Workload) MinRate(v SubID) int64 {
	ts := w.Topics(v)
	if len(ts) == 0 {
		return 0
	}
	m := w.rates[ts[0]]
	for _, t := range ts[1:] {
		if r := w.rates[t]; r < m {
			m = r
		}
	}
	return m
}

// TotalEventRate reports Σ_t ev_t across all topics.
func (w *Workload) TotalEventRate() int64 {
	var sum int64
	for _, r := range w.rates {
		sum += r
	}
	return sum
}

// TotalDeliveryRate reports Σ_v Σ_{t∈T_v} ev_t — the event rate the system
// would deliver with no satisfaction threshold (every pair served).
func (w *Workload) TotalDeliveryRate() int64 {
	var sum int64
	for t := TopicID(0); int(t) < w.NumTopics(); t++ {
		sum += w.rates[t] * int64(w.Followers(t))
	}
	return sum
}

// TopicName reports the name of topic t, or a synthesized "t<ID>" when the
// workload was built without names.
func (w *Workload) TopicName(t TopicID) string {
	if w.topicNames != nil {
		return w.topicNames[t]
	}
	return fmt.Sprintf("t%d", t)
}

// SubscriberName reports the name of subscriber v, or a synthesized "v<ID>".
func (w *Workload) SubscriberName(v SubID) string {
	if w.subNames != nil {
		return w.subNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// HasRegions reports whether the workload carries region tags.
func (w *Workload) HasRegions() bool { return w.topicRegions != nil || w.subRegions != nil }

// TopicRegion reports the region index of topic t's publisher, or 0 (the
// home region) when the workload is region-agnostic.
func (w *Workload) TopicRegion(t TopicID) int {
	if w.topicRegions == nil {
		return 0
	}
	return int(w.topicRegions[t])
}

// SubscriberRegion reports the region index of subscriber v, or 0 (the home
// region) when the workload is region-agnostic.
func (w *Workload) SubscriberRegion(v SubID) int {
	if w.subRegions == nil {
		return 0
	}
	return int(w.subRegions[v])
}

// TopicRegions returns the per-topic region-index slice, or nil for a
// region-agnostic workload. The returned slice must not be modified.
func (w *Workload) TopicRegions() []int32 { return w.topicRegions }

// SubscriberRegions returns the per-subscriber region-index slice, or nil
// for a region-agnostic workload. The returned slice must not be modified.
func (w *Workload) SubscriberRegions() []int32 { return w.subRegions }

// WithRegions returns a copy of the workload tagged with the given region
// indices (publishers per topic, delivery locations per subscriber). Both
// slices are required in full — len(topicRegions) must equal NumTopics and
// len(subRegions) must equal NumSubscribers — and every index must be
// non-negative; whether indices fit a particular Topology is checked at
// solve time (core.SolveContext). The slices are retained; callers must
// not modify them.
func (w *Workload) WithRegions(topicRegions, subRegions []int32) (*Workload, error) {
	if len(topicRegions) != w.NumTopics() {
		return nil, fmt.Errorf("workload: %d topic regions for %d topics", len(topicRegions), w.NumTopics())
	}
	if len(subRegions) != w.NumSubscribers() {
		return nil, fmt.Errorf("workload: %d subscriber regions for %d subscribers", len(subRegions), w.NumSubscribers())
	}
	for t, r := range topicRegions {
		if r < 0 {
			return nil, fmt.Errorf("workload: topic %d has negative region %d", t, r)
		}
	}
	for v, r := range subRegions {
		if r < 0 {
			return nil, fmt.Errorf("workload: subscriber %d has negative region %d", v, r)
		}
	}
	out := *w
	out.topicRegions = topicRegions
	out.subRegions = subRegions
	return &out, nil
}

// WithoutRegions returns w without region tags (w itself when it has
// none).
func (w *Workload) WithoutRegions() *Workload {
	if !w.HasRegions() {
		return w
	}
	out := *w
	out.topicRegions, out.subRegions = nil, nil
	return &out
}

// WithRegionsOf returns w tagged with base's region tags, for a workload
// derived from base with stable IDs: the topics and subscribers base has
// keep their regions, and IDs past base's range get the home region 0. An
// untagged base returns w unchanged.
func (w *Workload) WithRegionsOf(base *Workload) (*Workload, error) {
	if !base.HasRegions() {
		return w, nil
	}
	return w.WithRegions(padRegions(base.topicRegions, w.NumTopics()), padRegions(base.subRegions, w.NumSubscribers()))
}

// padRegions returns r resized to n, with the home region 0 past its end;
// r itself when it already has length n.
func padRegions(r []int32, n int) []int32 {
	if len(r) == n {
		return r
	}
	out := make([]int32, n)
	copy(out, r)
	return out
}

// SubscriptionCardinality reports the paper's SC_v metric (Appendix D):
// the percentage of the total event rate that subscriber v receives,
// SC_v = 100 · Σ_{t∈T_v} ev_t / Σ_{t∈T} ev_t.
func (w *Workload) SubscriptionCardinality(v SubID) float64 {
	total := w.TotalEventRate()
	if total == 0 {
		return 0
	}
	return 100 * float64(w.Demand(v)) / float64(total)
}

// Errors returned by Validate.
var (
	ErrRateNotPositive   = errors.New("workload: topic event rate must be > 0")
	ErrDuplicatePair     = errors.New("workload: duplicate topic-subscriber pair")
	ErrTopicOutOfRange   = errors.New("workload: subscription references unknown topic")
	ErrEmptySubscription = errors.New("workload: subscriber has no subscriptions")
	ErrOrphanTopic       = errors.New("workload: topic has no subscribers")
)

// Validate checks the structural invariants the paper assumes: positive event
// rates (ev_t > 0, §II-B), non-empty V_t for every topic, at least one
// subscription per subscriber, in-range topic references, and no duplicate
// pairs. It returns the first violation found.
func (w *Workload) Validate() error {
	for t, r := range w.rates {
		if r <= 0 {
			return fmt.Errorf("%w: topic %d has rate %d", ErrRateNotPositive, t, r)
		}
	}
	n := w.NumSubscribers()
	for v := 0; v < n; v++ {
		ts := w.Topics(SubID(v))
		if len(ts) == 0 {
			return fmt.Errorf("%w: subscriber %d", ErrEmptySubscription, v)
		}
		seen := make(map[TopicID]struct{}, len(ts))
		for _, t := range ts {
			if int(t) < 0 || int(t) >= len(w.rates) {
				return fmt.Errorf("%w: subscriber %d references topic %d", ErrTopicOutOfRange, v, t)
			}
			if _, dup := seen[t]; dup {
				return fmt.Errorf("%w: (%d, %d)", ErrDuplicatePair, t, v)
			}
			seen[t] = struct{}{}
		}
	}
	for t := 0; t < w.NumTopics(); t++ {
		if w.Followers(TopicID(t)) == 0 {
			return fmt.Errorf("%w: topic %d", ErrOrphanTopic, t)
		}
	}
	return nil
}

// Pairs invokes fn for every topic–subscriber pair in subscriber-major order.
// It stops early if fn returns false.
func (w *Workload) Pairs(fn func(Pair) bool) {
	for v := 0; v < w.NumSubscribers(); v++ {
		for _, t := range w.Topics(SubID(v)) {
			if !fn(Pair{Topic: t, Sub: SubID(v)}) {
				return
			}
		}
	}
}

// FromCSR builds a Workload directly from CSR subscriber→topic adjacency.
// rates[t] is the event rate of topic t; subOff has length numSubscribers+1
// and subTopics[subOff[v]:subOff[v+1]] lists the topics of subscriber v.
// The slices are retained; callers must not modify them afterwards. Names are
// optional and may be nil.
//
// FromCSR is the fast path used by trace generators and loaders; use a
// Builder for incremental construction.
func FromCSR(rates []int64, subOff []int64, subTopics []TopicID, topicNames, subNames []string) (*Workload, error) {
	if len(subOff) == 0 {
		subOff = []int64{0}
	}
	if subOff[0] != 0 || subOff[len(subOff)-1] != int64(len(subTopics)) {
		return nil, fmt.Errorf("workload: malformed CSR offsets: first=%d last=%d len(subTopics)=%d",
			subOff[0], subOff[len(subOff)-1], len(subTopics))
	}
	for i := 1; i < len(subOff); i++ {
		if subOff[i] < subOff[i-1] {
			return nil, fmt.Errorf("workload: CSR offsets not monotone at %d", i)
		}
	}
	for i, t := range subTopics {
		if int(t) < 0 || int(t) >= len(rates) {
			return nil, fmt.Errorf("workload: subscription %d references topic %d of %d", i, t, len(rates))
		}
	}
	if topicNames != nil && len(topicNames) != len(rates) {
		return nil, fmt.Errorf("workload: %d topic names for %d topics", len(topicNames), len(rates))
	}
	if subNames != nil && len(subNames) != len(subOff)-1 {
		return nil, fmt.Errorf("workload: %d subscriber names for %d subscribers", len(subNames), len(subOff)-1)
	}
	w := &Workload{
		rates:      rates,
		subOff:     subOff,
		subTopics:  subTopics,
		topicNames: topicNames,
		subNames:   subNames,
	}
	w.buildTopicCSR()
	return w, nil
}

// buildTopicCSR derives the topic→subscriber CSR from the
// subscriber→topic CSR with a two-pass counting sort.
func (w *Workload) buildTopicCSR() {
	numT := len(w.rates)
	counts := make([]int64, numT+1)
	for _, t := range w.subTopics {
		counts[t+1]++
	}
	for i := 1; i <= numT; i++ {
		counts[i] += counts[i-1]
	}
	w.topicOff = counts
	w.topicSubs = make([]SubID, len(w.subTopics))
	next := make([]int64, numT)
	copy(next, w.topicOff[:numT])
	for v := 0; v < w.NumSubscribers(); v++ {
		for _, t := range w.Topics(SubID(v)) {
			w.topicSubs[next[t]] = SubID(v)
			next[t]++
		}
	}
}

// Builder incrementally assembles a Workload. Topics and subscribers are
// keyed by name; identifiers are assigned densely in first-mention order.
// The zero value is ready to use.
type Builder struct {
	topicIDs map[string]TopicID
	subIDs   map[string]SubID

	topicNames []string
	subNames   []string
	rates      []int64

	subs [][]TopicID // per-subscriber topic lists, in insertion order
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		topicIDs: make(map[string]TopicID),
		subIDs:   make(map[string]SubID),
	}
}

func (b *Builder) ensureMaps() {
	if b.topicIDs == nil {
		b.topicIDs = make(map[string]TopicID)
		b.subIDs = make(map[string]SubID)
	}
}

// AddTopic registers topic name with the given event rate (events/hour),
// overwriting the rate if the topic already exists. It returns the builder
// for chaining.
func (b *Builder) AddTopic(name string, eventsPerHour int64) *Builder {
	b.ensureMaps()
	if id, ok := b.topicIDs[name]; ok {
		b.rates[id] = eventsPerHour
		return b
	}
	id := TopicID(len(b.rates))
	b.topicIDs[name] = id
	b.topicNames = append(b.topicNames, name)
	b.rates = append(b.rates, eventsPerHour)
	return b
}

// AddSubscriber registers subscriber name (with no subscriptions yet) and
// returns the builder for chaining. Registering is optional; AddSubscription
// auto-registers both sides.
func (b *Builder) AddSubscriber(name string) *Builder {
	b.ensureMaps()
	b.subID(name)
	return b
}

func (b *Builder) subID(name string) SubID {
	if id, ok := b.subIDs[name]; ok {
		return id
	}
	id := SubID(len(b.subs))
	b.subIDs[name] = id
	b.subNames = append(b.subNames, name)
	b.subs = append(b.subs, nil)
	return id
}

// AddSubscription subscribes sub to topic. An unknown topic is auto-created
// with rate 1 event/hour (adjust later with AddTopic); an unknown subscriber
// is auto-created. Duplicate subscriptions are ignored.
func (b *Builder) AddSubscription(sub, topic string) *Builder {
	b.ensureMaps()
	tid, ok := b.topicIDs[topic]
	if !ok {
		b.AddTopic(topic, 1)
		tid = b.topicIDs[topic]
	}
	vid := b.subID(sub)
	for _, existing := range b.subs[vid] {
		if existing == tid {
			return b
		}
	}
	b.subs[vid] = append(b.subs[vid], tid)
	return b
}

// Build assembles the Workload. Subscribers registered without any
// subscription are dropped (the paper's model has no empty interests);
// topics with no subscribers are kept only if some subscriber references
// them, i.e. they are dropped too, with identifiers re-densified.
func (b *Builder) Build() (*Workload, error) {
	// Determine which topics are actually referenced.
	used := make([]bool, len(b.rates))
	var numPairs int64
	for _, ts := range b.subs {
		numPairs += int64(len(ts))
		for _, t := range ts {
			used[t] = true
		}
	}
	remap := make([]TopicID, len(b.rates))
	var (
		newRates []int64
		newNames []string
	)
	for t, u := range used {
		if !u {
			remap[t] = -1
			continue
		}
		remap[t] = TopicID(len(newRates))
		newRates = append(newRates, b.rates[t])
		newNames = append(newNames, b.topicNames[t])
	}

	subOff := make([]int64, 0, len(b.subs)+1)
	subOff = append(subOff, 0)
	subTopics := make([]TopicID, 0, numPairs)
	var subNames []string
	for v, ts := range b.subs {
		if len(ts) == 0 {
			continue
		}
		for _, t := range ts {
			subTopics = append(subTopics, remap[t])
		}
		// Keep each subscriber's interest sorted for deterministic output.
		start := subOff[len(subOff)-1]
		seg := subTopics[start:]
		slices.Sort(seg)
		subOff = append(subOff, int64(len(subTopics)))
		subNames = append(subNames, b.subNames[v])
	}
	return FromCSR(newRates, subOff, subTopics, newNames, subNames)
}
