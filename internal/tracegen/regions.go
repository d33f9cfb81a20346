package tracegen

import (
	"fmt"
	"math/rand"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// TagRegions tags an existing workload with a synthetic n-region geography,
// deterministically for a given seed: each subscriber lands in a region
// drawn from a Zipf-like skew (region 0 is the largest market, the tail
// thins as 1/(1+i)), and each topic's publisher is pinned to one region —
// the region of its plurality audience with probability 3/4 (publishers
// tend to live where their followers are), a skew-drawn region otherwise.
// Pinning publishers per topic rather than redrawing them keeps co-located
// pairs a real phenomenon for GSP's home-region preference and the
// region-routed Stage 2 to exploit.
//
// n ≤ 1 returns the workload untouched (the region-agnostic setting).
func TagRegions(w *workload.Workload, n int, seed int64) (*workload.Workload, error) {
	if n <= 1 {
		return w, nil
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("tracegen: %d regions is out of range", n)
	}
	rng := rand.New(rand.NewSource(seed))

	// Zipf-ish region weights: w_i = 1/(1+i), cumulative for sampling.
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / float64(1+i)
		cum[i] = total
	}
	draw := func() int32 {
		x := rng.Float64() * total
		for i, c := range cum {
			if x < c {
				return int32(i)
			}
		}
		return int32(n - 1)
	}

	subRegions := make([]int32, w.NumSubscribers())
	for v := range subRegions {
		subRegions[v] = draw()
	}

	topicRegions := make([]int32, w.NumTopics())
	counts := make([]int, n)
	for t := range topicRegions {
		// Plurality region of the topic's subscribers (ties → lower index).
		for i := range counts {
			counts[i] = 0
		}
		best := 0
		for _, v := range w.Subscribers(workload.TopicID(t)) {
			r := subRegions[v]
			counts[r]++
			if counts[r] > counts[best] || (counts[r] == counts[best] && int(r) < best) {
				best = int(r)
			}
		}
		if rng.Float64() < 0.75 {
			topicRegions[t] = int32(best)
		} else {
			topicRegions[t] = draw()
		}
	}
	return w.WithRegions(topicRegions, subRegions)
}
