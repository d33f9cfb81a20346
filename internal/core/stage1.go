package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// Selection is Stage 1's output: for every subscriber, the chosen subset of
// their topic subscriptions. It offers both the subscriber-major pair order
// (what FFBP consumes) and a topic-grouped view (what CBP consumes).
//
// A selection is read-only once built and may be shared by concurrent
// readers (the stage-2 portfolio members pack one selection at once), so
// its two lazy views are built under a sync.Once. Building them eagerly
// instead would charge O(pairs) to every selection constructed, used or
// not.
type Selection struct {
	w *workload.Workload

	// Subscriber-major CSR of selected topics.
	subOff    []int64
	subTopics []workload.TopicID

	// Topic-grouped CSR of selected subscribers, derived lazily.
	topicOnce sync.Once
	topicOff  []int64
	topicSubs []workload.SubID

	// selRates caches Σ_{t selected for v} ev_t per subscriber, built
	// lazily on first use so Satisfied/FirstUnsatisfied cost O(1) per
	// query after one O(pairs) pass.
	ratesOnce sync.Once
	selRates  []int64
}

// Workload returns the workload the selection was made from.
func (s *Selection) Workload() *workload.Workload { return s.w }

// NumPairs reports |S|, the number of selected pairs.
func (s *Selection) NumPairs() int64 { return int64(len(s.subTopics)) }

// SelectedTopics returns the selected topics of subscriber v. The slice
// aliases internal storage and must not be modified.
func (s *Selection) SelectedTopics(v workload.SubID) []workload.TopicID {
	return s.subTopics[s.subOff[v]:s.subOff[v+1]]
}

// SelectedRate reports the delivered event rate Σ_{t selected for v} ev_t.
func (s *Selection) SelectedRate(v workload.SubID) int64 {
	s.buildRates()
	return s.selRates[v]
}

// buildRates materializes the per-subscriber selected-rate cache once.
func (s *Selection) buildRates() { s.ratesOnce.Do(s.computeRates) }

func (s *Selection) computeRates() {
	n := len(s.subOff) - 1
	if n < 0 {
		n = 0
	}
	rates := make([]int64, n)
	for v := 0; v < n; v++ {
		var sum int64
		for _, t := range s.subTopics[s.subOff[v]:s.subOff[v+1]] {
			sum += s.w.Rate(t)
		}
		rates[v] = sum
	}
	s.selRates = rates
}

// OutgoingRate reports Σ over selected pairs of ev_t (events/hour): the
// outgoing event volume the allocation will carry.
func (s *Selection) OutgoingRate() int64 {
	var sum int64
	for _, t := range s.subTopics {
		sum += s.w.Rate(t)
	}
	return sum
}

// SelectedSubscribers returns the selected subscribers of topic t, building
// the topic-grouped view on first use. The slice aliases internal storage
// and must not be modified.
func (s *Selection) SelectedSubscribers(t workload.TopicID) []workload.SubID {
	s.buildTopicView()
	return s.topicSubs[s.topicOff[t]:s.topicOff[t+1]]
}

// Pairs invokes fn for every selected pair in subscriber-major order,
// stopping early if fn returns false.
func (s *Selection) Pairs(fn func(workload.Pair) bool) {
	for v := 0; v+1 < len(s.subOff); v++ {
		for _, t := range s.subTopics[s.subOff[v]:s.subOff[v+1]] {
			if !fn(workload.Pair{Topic: t, Sub: workload.SubID(v)}) {
				return
			}
		}
	}
}

// buildTopicView materializes the topic-grouped view once.
func (s *Selection) buildTopicView() { s.topicOnce.Do(s.computeTopicView) }

func (s *Selection) computeTopicView() {
	numT := s.w.NumTopics()
	counts := make([]int64, numT+1)
	for _, t := range s.subTopics {
		counts[t+1]++
	}
	for i := 1; i <= numT; i++ {
		counts[i] += counts[i-1]
	}
	s.topicOff = counts
	s.topicSubs = make([]workload.SubID, len(s.subTopics))
	next := make([]int64, numT)
	copy(next, s.topicOff[:numT])
	for v := 0; v+1 < len(s.subOff); v++ {
		for _, t := range s.subTopics[s.subOff[v]:s.subOff[v+1]] {
			s.topicSubs[next[t]] = workload.SubID(v)
			next[t]++
		}
	}
}

// Satisfied reports whether every subscriber's selected rate meets its
// threshold τ_v, i.e. the Σ f_v = |V| constraint of the MCSS definition.
func (s *Selection) Satisfied(tau int64) bool {
	return s.FirstUnsatisfied(tau) < 0
}

// FirstUnsatisfied returns the smallest subscriber ID whose selected rate is
// below τ_v, or -1 when all are satisfied.
func (s *Selection) FirstUnsatisfied(tau int64) workload.SubID {
	for v := 0; v+1 < len(s.subOff); v++ {
		if s.SelectedRate(workload.SubID(v)) < s.w.TauV(workload.SubID(v), tau) {
			return workload.SubID(v)
		}
	}
	return -1
}

// GreedySelectPairs implements the paper's GSP (Alg. 1 + Alg. 2). For each
// subscriber it selects pairs by maximum benefit/cost ratio
// min(1, ev_t/rem_v) / (2·ev_t) until τ_v is reached.
//
// The implementation exploits the structure of the ratio rather than
// recomputing every ratio per pick: every not-yet-selected topic with
// ev_t ≤ rem_v ties at ratio 1/(2·rem_v), and every topic with ev_t > rem_v
// scores 1/(2·ev_t) — strictly worse than any fitting topic. The greedy
// therefore (1) takes fitting topics (largest-first is our deterministic
// tie-break, which also minimizes the pair count), and (2) when no topic
// fits in the remaining demand, takes the smallest-rate remaining topic and
// finishes (pickMinOvershoot). greedyReference in tests implements Alg. 2
// literally and is property-checked to select pairs of identical total
// bandwidth.
func GreedySelectPairs(w *workload.Workload, tau int64) *Selection {
	sel, _ := GreedySelectPairsContext(context.Background(), w, Config{Tau: tau})
	return sel
}

// GreedySelectPairsContext is GreedySelectPairs with context cancellation
// (checked every checkInterval subscribers), Config.Observer progress
// callbacks, and Config.Parallelism-controlled sharding. It is the default
// Stage 1, which the mcss Planner names "gsp". Each subscriber's selection
// is independent of the others', so the shards (contiguous subscriber
// ranges, one per worker; one for a workload under two subscribers per
// worker) merge into the same selection at every worker count. The first
// shard runs on the calling goroutine and alone reports progress.
//
// Under a multi-region Config.Topology, on a workload with region tags,
// each subscriber's interests are scanned home region first: topics
// published in the subscriber's own region, then the rest, each part rate
// descending. Co-located pairs never leave the region, so preferring them
// removes the inter-region hop and its egress charge at the price of
// sometimes carrying a slightly higher selected rate. The fallback topic
// is still the smallest-rate one skipped, a home topic on a rate tie. On
// any other input no topic is home and the selection is the paper's GSP.
func GreedySelectPairsContext(ctx context.Context, w *workload.Workload, cfg Config) (*Selection, error) {
	obs := ResolveObserver(ctx, cfg)
	homeFirst := cfg.Topology != nil && cfg.Topology.NumRegions() > 1 && w.HasRegions()
	start := time.Now()
	n := w.NumSubscribers()
	workers := workerCount(cfg.Parallelism)
	shards, per := 1, n
	if n >= 2*workers {
		per = (n + workers - 1) / workers
		shards = (n + per - 1) / per
	}
	offs := make([][]int64, shards)
	topics := make([][]workload.TopicID, shards)
	err := fanOut(ctx, shards, workers, func(ctx context.Context, k int) error {
		tk := &ticker{ctx: ctx, left: checkInterval}
		if k == 0 {
			tk = newTicker(ctx, obs, StageSelect, int64(n))
		}
		var err error
		offs[k], topics[k], err = greedySelectRange(w, k*per, min(n, (k+1)*per), cfg.Tau, homeFirst, tk)
		return err
	})
	if err != nil {
		return nil, err
	}
	subOff, subTopics := offs[0], topics[0]
	for k := 1; k < shards; k++ {
		base := int64(len(subTopics))
		subTopics = append(subTopics, topics[k]...)
		for _, off := range offs[k][1:] {
			subOff = append(subOff, base+off)
		}
	}
	FinishStage(obs, StageSelect, int64(n), int64(n), time.Since(start))
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}, nil
}

// greedySelectRange runs GSP over subscribers [lo, hi) and returns the
// CSR fragment (offsets relative to the fragment start). With homeFirst a
// topic published in the subscriber's region is home. tk polls
// cancellation once per checkInterval subscribers; it may be a ticker with
// a nil observer (every shard's but the first).
func greedySelectRange(w *workload.Workload, lo, hi int, tau int64, homeFirst bool, tk *ticker) ([]int64, []workload.TopicID, error) {
	subOff := make([]int64, 1, hi-lo+1)
	var expect int64
	if w.NumSubscribers() > 0 {
		expect = w.NumPairs() * int64(hi-lo) / int64(w.NumSubscribers()) / 2
	}
	subTopics := make([]workload.TopicID, 0, expect+1)

	// Scratch reused across subscribers: the candidates of one subscriber.
	var scratch []rateTopic
	for v := lo; v < hi; v++ {
		if err := tk.tick(1); err != nil {
			return nil, nil, err
		}
		ts := w.Topics(workload.SubID(v))
		region := w.SubscriberRegion(workload.SubID(v))
		scratch = scratch[:0]
		var demand int64
		for _, t := range ts {
			r := w.Rate(t)
			demand += r
			scratch = append(scratch, rateTopic{rate: r, topic: t, home: homeFirst && w.TopicRegion(t) == region})
		}
		if demand <= tau {
			// Everything is needed, and the row is ascending already.
			subTopics = append(subTopics, ts...)
			subOff = append(subOff, int64(len(subTopics)))
			continue
		}
		start := len(subTopics)
		subTopics, _ = pickMinOvershoot(subTopics, scratch, tau, true)
		sortTopicIDs(subTopics[start:])
		subOff = append(subOff, int64(len(subTopics)))
	}
	return subOff, subTopics, nil
}

// directPicks is how many of k candidates' picks pickMinOvershoot makes
// by scanning before it sorts: ⌈log₂ k⌉.
func directPicks(k int) int {
	if k <= 1 {
		return 0
	}
	return bits.Len(uint(k - 1))
}

// rateTopic is one candidate of a minimal-overshoot pick: a topic, its
// rate, and whether it is published in the subscriber's home region.
type rateTopic struct {
	rate  int64
	topic workload.TopicID
	home  bool
}

// takeOrder orders two candidates that both fit the remaining need: a
// home topic first, then the larger rate, then the lower topic if
// lowTopic, else the higher. It is written to inline into the pick loop.
func takeOrder(a, b rateTopic, lowTopic bool) int {
	switch {
	case a.home != b.home:
		if a.home {
			return -1
		}
		return 1
	case a.rate != b.rate:
		if a.rate > b.rate {
			return -1
		}
		return 1
	case a.topic == b.topic:
		return 0
	case a.topic < b.topic == lowTopic:
		return -1
	}
	return 1
}

// fallbackOrder orders two candidates when none fits: the smaller rate,
// then a home topic, then the topic at the other end from takeOrder's.
func fallbackOrder(a, b rateTopic, lowTopic bool) int {
	switch {
	case a.rate != b.rate:
		if a.rate < b.rate {
			return -1
		}
		return 1
	case a.home != b.home:
		if a.home {
			return -1
		}
		return 1
	case a.topic == b.topic:
		return 0
	case a.topic > b.topic == lowTopic:
		return -1
	}
	return 1
}

// pickMinOvershoot is the minimal-overshoot greedy GSP and Rehomer.TopUp
// share. It appends picks from cands to dst until their rates reach need:
// each time the first candidate in takeOrder that fits the need left, and
// when none fits, the first in fallbackOrder, which closes the gap with
// the least excess. The picks come in the order they are made. It returns
// dst and the need left, which is positive only when cands ran out. cands
// is scratch: it is reordered and shortened.
//
// The list is not sorted up front. Each of the first directPicks(k) picks
// (k = len(cands)) is one pass that finds the best fitting candidate and
// drops the ones that no longer fit: the need only shrinks, so they never
// will, and they are kept only as the fallback. Past those picks, or as
// soon as the need left takes more picks at the largest fitting rate than
// remain, what is left is sorted once in takeOrder and scanned. A few
// picks thus cost a few passes, and many cost little more than the sort.
func pickMinOvershoot(dst []workload.TopicID, cands []rateTopic, need int64, lowTopic bool) ([]workload.TopicID, int64) {
	var fb rateTopic
	hasFB := false
	fallback := func(c rateTopic) {
		if !hasFB || fallbackOrder(c, fb, lowTopic) < 0 {
			fb, hasFB = c, true
		}
	}
	for direct := directPicks(len(cands)); direct > 0 && need > 0; direct-- {
		best, n := -1, 0
		var maxRate int64
		for _, c := range cands {
			if c.rate > need {
				fallback(c)
				continue
			}
			if best < 0 || takeOrder(c, cands[best], lowTopic) < 0 {
				best = n
			}
			maxRate = max(maxRate, c.rate)
			cands[n] = c
			n++
		}
		cands = cands[:n]
		if best < 0 {
			break
		}
		dst = append(dst, cands[best].topic)
		need -= cands[best].rate
		cands[best] = cands[n-1]
		cands = cands[:n-1]
		if need > 0 && (need-1)/maxRate >= int64(direct-1) {
			break // the sort is certain: more than direct-1 picks remain
		}
	}
	if need > 0 && len(cands) > 0 {
		slices.SortFunc(cands, func(a, b rateTopic) int { return takeOrder(a, b, lowTopic) })
		for _, c := range cands {
			if need <= 0 {
				break
			}
			if c.rate <= need {
				dst = append(dst, c.topic)
				need -= c.rate
			} else {
				fallback(c)
			}
		}
	}
	if need > 0 && hasFB {
		dst = append(dst, fb.topic)
		need -= fb.rate
	}
	return dst, need
}

func sortTopicIDs(s []workload.TopicID) {
	slices.Sort(s)
}

// RandomSelectPairsContext implements the paper's naive RSP baseline
// (Alg. 6), the Stage 1 the mcss Planner names "rsp": for each
// subscriber, pairs are taken in input (adjacency) order until τ_v is met,
// with no regard for bandwidth cost. The context is checked per
// subscriber, and Config.Observer gets progress callbacks.
func RandomSelectPairsContext(ctx context.Context, w *workload.Workload, cfg Config) (*Selection, error) {
	cfg.Observer = ResolveObserver(ctx, cfg)
	start := time.Now()
	n := w.NumSubscribers()
	tk := newTicker(ctx, cfg.Observer, StageSelect, int64(n))
	subOff := make([]int64, 1, n+1)
	subTopics := make([]workload.TopicID, 0, w.NumPairs()/2+1)
	for v := 0; v < n; v++ {
		if err := tk.tick(1); err != nil {
			return nil, err
		}
		tauV := w.TauV(workload.SubID(v), cfg.Tau)
		var got int64
		for _, t := range w.Topics(workload.SubID(v)) {
			if got >= tauV {
				break
			}
			subTopics = append(subTopics, t)
			got += w.Rate(t)
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	tk.finish(time.Since(start))
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}, nil
}

// SelectionFromPairs builds a Selection from an explicit pair list in any
// order, de-duplicating repeats. It is how full-solve strategies (like the
// exact solver) and external tools re-enter the allocation pipeline with a
// pair set they chose themselves; since that pair set crosses an API
// boundary, out-of-range topic or subscriber IDs are rejected with an
// error rather than corrupting the solve downstream.
func SelectionFromPairs(w *workload.Workload, pairs []workload.Pair) (*Selection, error) {
	n := w.NumSubscribers()
	numT := w.NumTopics()
	// One counting pass sizes the rows, one pass fills them in pair
	// order; a row then needs sorting only when its pairs arrived out of
	// topic order.
	subOff := make([]int64, n+1)
	for i, p := range pairs {
		if int(p.Sub) < 0 || int(p.Sub) >= n {
			return nil, fmt.Errorf("core: pair %d references subscriber %d of %d", i, p.Sub, n)
		}
		if int(p.Topic) < 0 || int(p.Topic) >= numT {
			return nil, fmt.Errorf("core: pair %d references topic %d of %d", i, p.Topic, numT)
		}
		subOff[p.Sub+1]++
	}
	for v := 0; v < n; v++ {
		subOff[v+1] += subOff[v]
	}
	subTopics := make([]workload.TopicID, len(pairs))
	next := slices.Clone(subOff[:n])
	for _, p := range pairs {
		subTopics[next[p.Sub]] = p.Topic
		next[p.Sub]++
	}
	// Sort and de-duplicate each row, compacting in place: the write
	// position never passes the row being read.
	out, lo := int64(0), int64(0)
	for v := 0; v < n; v++ {
		hi := subOff[v+1]
		row := subTopics[lo:hi]
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
		for i, t := range row {
			if i > 0 && row[i-1] == t {
				continue // de-duplicate
			}
			subTopics[out] = t
			out++
		}
		subOff[v+1], lo = out, hi
	}
	return &Selection{w: w, subOff: subOff, subTopics: subTopics[:out]}, nil
}

// SelectAllPairs returns the selection containing every pair (the no-τ
// deployment); useful as an upper baseline and in tests.
func SelectAllPairs(w *workload.Workload) *Selection {
	n := w.NumSubscribers()
	subOff := make([]int64, 1, n+1)
	subTopics := make([]workload.TopicID, 0, w.NumPairs())
	for v := 0; v < n; v++ {
		subTopics = append(subTopics, w.Topics(workload.SubID(v))...)
		subOff = append(subOff, int64(len(subTopics)))
	}
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}
}

// runStage1 runs Stage 1: Config.Stage1 when set, otherwise GSP.
func runStage1(ctx context.Context, w *workload.Workload, cfg Config) (*Selection, error) {
	if cfg.Stage1 != nil {
		return cfg.Stage1(ctx, w, cfg)
	}
	return GreedySelectPairsContext(ctx, w, cfg)
}
