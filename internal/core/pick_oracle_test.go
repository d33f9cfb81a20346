package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// greedySelectRangeSort is GSP over subscribers [lo, hi) as it was before
// pickMinOvershoot: each interest list sorted in scan order (home first,
// then rate descending, then topic ascending) and scanned once, taking
// what fits and keeping the smallest-rate skipped topic as the fallback. It
// is the test-only oracle for greedySelectRange.
func greedySelectRangeSort(w *workload.Workload, lo, hi int, tau int64, homeFirst bool) ([]int64, []workload.TopicID) {
	subOff := make([]int64, 1, hi-lo+1)
	var subTopics []workload.TopicID
	var scratch []rateTopic
	for v := lo; v < hi; v++ {
		ts := w.Topics(workload.SubID(v))
		region := w.SubscriberRegion(workload.SubID(v))
		scratch = scratch[:0]
		var demand int64
		for _, t := range ts {
			r := w.Rate(t)
			demand += r
			scratch = append(scratch, rateTopic{rate: r, topic: t, home: homeFirst && w.TopicRegion(t) == region})
		}
		tauV := tau
		if demand < tauV {
			tauV = demand
		}
		if tauV == demand {
			// Everything is needed; skip the sort.
			start := len(subTopics)
			for _, rt := range scratch {
				subTopics = append(subTopics, rt.topic)
			}
			sortTopicIDs(subTopics[start:])
			subOff = append(subOff, int64(len(subTopics)))
			continue
		}
		slices.SortFunc(scratch, func(a, b rateTopic) int {
			if a.home != b.home {
				if a.home {
					return -1
				}
				return 1
			}
			if a.rate != b.rate {
				return cmp.Compare(b.rate, a.rate) // rate descending
			}
			return cmp.Compare(a.topic, b.topic)
		})
		rem := tauV
		start := len(subTopics)
		fallback := -1
		for i, rt := range scratch {
			if rem <= 0 {
				break
			}
			if rt.rate <= rem {
				subTopics = append(subTopics, rt.topic)
				rem -= rt.rate
				continue
			}
			// The smallest rate skipped so far; on a tie a home topic,
			// else the later one, which without home topics makes it the
			// last skipped entry.
			if fallback < 0 || rt.rate < scratch[fallback].rate ||
				rt.rate == scratch[fallback].rate && (rt.home || !scratch[fallback].home) {
				fallback = i
			}
		}
		if rem > 0 {
			subTopics = append(subTopics, scratch[fallback].topic)
		}
		sortTopicIDs(subTopics[start:])
		subOff = append(subOff, int64(len(subTopics)))
	}
	return subOff, subTopics
}

// topUpSort is Rehomer.TopUp as it was before pickMinOvershoot: the missing
// interests sorted by ascending rate, then ascending topic, and one binary
// search per pick for the largest rate ≤ the need left, else the first
// candidate. It is the test-only oracle for TopUp.
func topUpSort(r *Rehomer, w *workload.Workload, v workload.SubID, selected []workload.TopicID, need int64, placed func(t workload.TopicID, slot int32)) error {
	var cands []workload.TopicID
	i := 0
	for _, t := range w.Topics(v) {
		for i < len(selected) && selected[i] < t {
			i++
		}
		if i < len(selected) && selected[i] == t {
			continue
		}
		cands = append(cands, t)
	}
	slices.SortFunc(cands, func(a, b workload.TopicID) int {
		if c := cmp.Compare(w.Rate(a), w.Rate(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for need > 0 {
		if len(cands) == 0 {
			return fmt.Errorf("core: subscriber %d below τ_v with no interests left", v)
		}
		j := sort.Search(len(cands), func(i int) bool { return w.Rate(cands[i]) > need })
		if j > 0 {
			j--
		}
		t := cands[j]
		cands = slices.Delete(cands, j, j+1)
		slot, ok := r.PlacePair(t, v, w.Rate(t)*r.msg)
		if !ok {
			return fmt.Errorf("%w: topic %d does not fit any fleet type", ErrInfeasible, t)
		}
		placed(t, slot)
		need -= w.Rate(t)
	}
	return nil
}

// gspVsSortOracle runs GSP under cfg and the sort-based oracle on the same
// input, and describes the first difference of their CSR rows, or "".
func gspVsSortOracle(w *workload.Workload, cfg Config) string {
	sel, err := GreedySelectPairsContext(context.Background(), w, cfg)
	if err != nil {
		return fmt.Sprintf("GSP: %v", err)
	}
	homeFirst := cfg.Topology != nil && cfg.Topology.NumRegions() > 1 && w.HasRegions()
	off, topics := greedySelectRangeSort(w, 0, w.NumSubscribers(), cfg.Tau, homeFirst)
	if slices.Equal(sel.subOff, off) && slices.Equal(sel.subTopics, topics) {
		return ""
	}
	for v := 0; v < w.NumSubscribers(); v++ {
		got, want := sel.SelectedTopics(workload.SubID(v)), topics[off[v]:off[v+1]]
		if !slices.Equal(got, want) {
			return fmt.Sprintf("subscriber %d: selects %v, the sort selects %v", v, got, want)
		}
	}
	return fmt.Sprintf("CSR differs: %d offsets and %d pairs, the sort has %d and %d",
		len(sel.subOff), len(sel.subTopics), len(off), len(topics))
}

// Exported for TestGSPMatchesSortOracle, which lives in the external test
// package because experiments, dynamic and topo import core.
var GSPVsSortOracle = gspVsSortOracle

// TestTopUpMatchesSortOracle compares TopUp with the sort-based top-up it
// replaced on random interest lists with few distinct rates (so many
// ties), random selected subsets and needs up to past the whole demand:
// the same (topic, slot) sequence and the same error, whether the
// interests run out, a topic fits no fleet type, or the need is met. The
// cases cross the switch from scanned to sorted picks, which sits at
// ⌈log₂ k⌉ picks for k candidates.
func TestTopUpMatchesSortOracle(t *testing.T) {
	for k := 0; k <= 4096; k++ {
		want := 0
		for 1<<want < k {
			want++
		}
		if got := directPicks(k); got != want {
			t.Fatalf("directPicks(%d) = %d, want ⌈log₂ k⌉ = %d", k, got, want)
		}
	}

	cases := 3000
	if testing.Short() {
		cases = 600
	}
	rng := rand.New(rand.NewSource(26))
	type pick struct {
		topic workload.TopicID
		slot  int32
	}
	var crossed, exhausted, infeasible, maxPicks int
	for c := 0; c < cases; c++ {
		numT := 1 + rng.Intn(400)
		maxRate := 1 + rng.Int63n(12)
		rates := make([]int64, numT)
		for i := range rates {
			rates[i] = 1 + rng.Int63n(maxRate)
		}
		row := rng.Perm(numT)[:1+rng.Intn(numT)]
		slices.Sort(row)
		interests := make([]workload.TopicID, len(row))
		var selected []workload.TopicID
		keep := rng.Float64()
		var candSum int64
		for i, t := range row {
			interests[i] = workload.TopicID(t)
			if rng.Float64() < keep {
				selected = append(selected, workload.TopicID(t))
			} else {
				candSum += rates[t]
			}
		}
		w, err := workload.FromCSR(rates, []int64{0, int64(len(interests))}, interests, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		need := 1 + rng.Int63n(candSum+candSum/8+1)
		// Now and then the one type is too small for the hottest topics.
		msg := 1 + rng.Int63n(3)
		capacity := 2 * maxRate * msg
		if rng.Intn(8) == 0 {
			capacity -= 1 + rng.Int63n(msg)
		}
		fleet, err := pricing.NewFleetWithCapacities([]pricing.InstanceType{pricing.C3Large}, []int64{capacity})
		if err != nil {
			t.Fatal(err)
		}
		run := func(topUp func(r *Rehomer, placed func(workload.TopicID, int32)) error) ([]pick, error) {
			var picks []pick
			err := topUp(newRehomer(nil, fleet, msg), func(t workload.TopicID, slot int32) {
				picks = append(picks, pick{t, slot})
			})
			return picks, err
		}
		got, gotErr := run(func(r *Rehomer, placed func(workload.TopicID, int32)) error {
			return r.TopUp(w, 0, selected, need, placed)
		})
		want, wantErr := run(func(r *Rehomer, placed func(workload.TopicID, int32)) error {
			return topUpSort(r, w, 0, selected, need, placed)
		})
		if !slices.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("case %d (%d candidates, need %d): picks %v, error %v; the sort picks %v, error %v",
				c, len(interests)-len(selected), need, got, gotErr, want, wantErr)
		}
		if len(got) > directPicks(len(interests)-len(selected)) {
			crossed++
		}
		maxPicks = max(maxPicks, len(got))
		switch {
		case errors.Is(gotErr, ErrInfeasible):
			infeasible++
		case gotErr != nil:
			exhausted++
		}
	}
	t.Logf("%d cases: %d crossed to the sort, %d ran out of interests, %d hit an unplaceable topic; at most %d picks",
		cases, crossed, exhausted, infeasible, maxPicks)
	if crossed == 0 || exhausted == 0 || infeasible == 0 {
		t.Errorf("the cases miss a path: %d crossed, %d exhausted, %d infeasible", crossed, exhausted, infeasible)
	}
}
