package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// stage1Workers resolves Config.Parallelism against the workload size:
// 0 and 1 are serial, negative means GOMAXPROCS, and workloads too small
// to shard stay serial regardless.
func stage1Workers(parallelism, numSubscribers int) int {
	workers := parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || numSubscribers < 2*workers {
		return 1
	}
	return workers
}

// greedySelectParallel shards GSP over worker goroutines. Per-subscriber
// selection is independent, so the merged result is bit-identical to the
// serial algorithm; only wall-clock time changes. Every worker polls a
// shared derived context on its own ticker, and the first worker
// to fail cancels that context so its siblings abort within one
// checkInterval batch instead of finishing doomed shards; the goroutines
// are always joined before returning, leaking nothing. The caller's
// context error wins the report (every shard of a cancelled solve fails
// with it anyway); otherwise the first error recorded is returned.
func greedySelectParallel(ctx context.Context, w *workload.Workload, tau int64, homeFirst bool, workers int, obs Observer) (*Selection, error) {
	start := time.Now()
	n := w.NumSubscribers()
	if obs != nil {
		obs.OnStageStart(StageSelect, int64(n))
	}

	type fragment struct {
		subOff    []int64
		subTopics []workload.TopicID
		err       error
	}
	frags := make([]fragment, workers)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	per := (n + workers - 1) / workers
	for k := 0; k < workers; k++ {
		lo := k * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			frags[k] = fragment{subOff: []int64{0}}
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			// Workers tick cancellation but not the observer: progress
			// callbacks stay single-goroutine.
			tk := &ticker{ctx: wctx, left: checkInterval}
			off, topics, err := greedySelectRange(w, lo, hi, tau, homeFirst, tk)
			frags[k] = fragment{subOff: off, subTopics: topics, err: err}
			if err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(k, lo, hi)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		// Every fragment error fires errOnce, so no f.err can survive
		// past this point.
		return nil, firstErr
	}
	var totalPairs int64
	for _, f := range frags {
		totalPairs += int64(len(f.subTopics))
	}
	subOff := make([]int64, 1, n+1)
	subTopics := make([]workload.TopicID, 0, totalPairs)
	for _, f := range frags {
		base := int64(len(subTopics))
		subTopics = append(subTopics, f.subTopics...)
		for _, off := range f.subOff[1:] {
			subOff = append(subOff, base+off)
		}
	}
	FinishStage(obs, StageSelect, int64(n), int64(n), time.Since(start))
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}, nil
}
