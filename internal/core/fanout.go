package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves Config.Parallelism, the one worker-count convention
// of both solver stages: 0 and 1 mean one worker, the calling goroutine;
// n > 1 means n; any negative value means GOMAXPROCS.
func workerCount(parallelism int) int {
	if parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(parallelism, 1)
}

// fanOut calls run once for each index in [0, n), at most workers at a
// time. Run 0 goes first, on the calling goroutine, which then takes
// further runs in index order as it frees up; the others go to at most
// workers−1 helper goroutines, none with one worker. Only run 0 may report
// to an observer: only it is sure to run on the caller. The runs share a
// context derived from ctx that the first error cancels, so no further run
// starts and those in flight abort at their next poll. Every helper is
// joined before fanOut returns ctx's own error, else the first error a run
// returned.
func fanOut(ctx context.Context, n, workers int, run func(ctx context.Context, i int) error) error {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	claim := func() int {
		if i := int(next.Add(1) - 1); i < n && fctx.Err() == nil {
			return i
		}
		return -1
	}
	work := func(i int) {
		for ; i >= 0; i = claim() {
			if err := run(fctx, i); err != nil {
				once.Do(func() { first = err; cancel() })
			}
		}
	}
	i := claim() // run 0, unless ctx is done already
	for h := 1; h < min(workers, n); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(claim())
		}()
	}
	work(i)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return first
}
