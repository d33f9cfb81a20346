package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/tracegen"
)

// goid returns the running goroutine's ID, read from the header of its
// stack trace ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// settleGoroutines waits up to two seconds for the goroutine count to fall
// back to before: joined helpers may still be retiring when fanOut returns.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFanOut(t *testing.T) {
	errBoom := errors.New("boom")
	bg := context.Background()

	t.Run("one worker runs everything in order on the caller", func(t *testing.T) {
		caller, before := goid(), runtime.NumGoroutine()
		var order []int
		err := fanOut(bg, 5, 1, func(_ context.Context, i int) error {
			if id := goid(); id != caller {
				t.Errorf("run %d on goroutine %d, caller is %d", i, id, caller)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("run %d: %d goroutines, %d before the call", i, n, before)
			}
			order = append(order, i)
			return nil
		})
		if err != nil || fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Fatalf("err %v, order %v; want nil, [0 1 2 3 4]", err, order)
		}
	})

	t.Run("run 0 on the caller, every run once", func(t *testing.T) {
		caller := goid()
		var counts [16]atomic.Int32
		err := fanOut(bg, len(counts), 4, func(_ context.Context, i int) error {
			if i == 0 && goid() != caller {
				t.Error("run 0 left the calling goroutine")
			}
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("run %d ran %d times", i, c)
			}
		}
	})

	t.Run("first error stops the runs not yet started", func(t *testing.T) {
		// One worker: runs past the failing one never start.
		var ran []int
		err := fanOut(bg, 6, 1, func(_ context.Context, i int) error {
			ran = append(ran, i)
			if i == 3 {
				return errBoom
			}
			return nil
		})
		if err != errBoom || fmt.Sprint(ran) != "[0 1 2 3]" {
			t.Fatalf("err %v, ran %v; want boom, [0 1 2 3]", err, ran)
		}
		// Two workers: run 0 holds the caller until the helper's run 1
		// fails, and must see that failure cancel its context; then
		// neither takes another run.
		var mu sync.Mutex
		ran = ran[:0]
		err = fanOut(bg, 6, 2, func(ctx context.Context, i int) error {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			switch i {
			case 0:
				<-ctx.Done()
				return ctx.Err()
			case 1:
				return errBoom
			}
			return nil
		})
		if err != errBoom || len(ran) != 2 {
			t.Fatalf("err %v, ran %v; want boom from runs 0 and 1 only", err, ran)
		}
	})

	t.Run("the caller's context error wins", func(t *testing.T) {
		ctx, cancel := context.WithCancel(bg)
		err := fanOut(ctx, 3, 2, func(_ context.Context, i int) error {
			if i == 0 {
				cancel()
				return errBoom
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
		started := false
		err = fanOut(ctx, 3, 2, func(context.Context, int) error { started = true; return nil })
		if !errors.Is(err, context.Canceled) || started {
			t.Fatalf("cancelled before the call: err %v, a run started: %v", err, started)
		}
	})

	t.Run("no goroutine outlives the call", func(t *testing.T) {
		before := runtime.NumGoroutine()
		var inFlight, ran atomic.Int32
		err := fanOut(bg, 64, 8, func(_ context.Context, i int) error {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			time.Sleep(100 * time.Microsecond)
			ran.Add(1)
			if i == 40 {
				return errBoom
			}
			return nil
		})
		if err != errBoom {
			t.Fatalf("err %v, want boom", err)
		}
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("%d runs still in flight after fanOut returned", n)
		}
		if n := ran.Load(); n < 41 || n == 64 {
			t.Errorf("%d runs finished; want run 40's error to stop some of the 64", n)
		}
		settleGoroutines(t, before)
	})
}

// goroutineRecorder notes every stage callback that fires off the
// goroutine it expects.
type goroutineRecorder struct {
	want  uint64
	mu    sync.Mutex
	calls map[string]int // "stage1 start", "stage2 progress", ...
	stray []string
}

func (g *goroutineRecorder) note(stage, call string) {
	id := goid()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.calls[stage+" "+call]++
	if id != g.want {
		g.stray = append(g.stray, fmt.Sprintf("%s %s on goroutine %d", stage, call, id))
	}
}

func (g *goroutineRecorder) OnStageStart(stage string, _ int64)        { g.note(stage, "start") }
func (g *goroutineRecorder) OnProgress(stage string, _, _ int64)       { g.note(stage, "progress") }
func (g *goroutineRecorder) OnStageDone(stage string, _ time.Duration) { g.note(stage, "done") }
func (g *goroutineRecorder) OnEpoch(int, int)                          {}

// Observer callbacks fire on the calling goroutine at every Parallelism:
// Stage 1's first shard and the portfolio's mixed pack, the only runs
// that report, run on the caller.
func TestObserverCallbacksOnCallingGoroutine(t *testing.T) {
	// 17k subscribers: the first of two shards still crosses a progress
	// batch (checkInterval), and so does the mixed pack.
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 100, Subscribers: 17_000, MaxFollowings: 2, MaxRate: 50, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tau: 30, MessageBytes: 1, Model: testModel(500 * 50), Opts: OptAll}
	cfg.Fleet = testFleet(t, cfg.Model.CapacityBytesPerHour())
	for _, par := range []int{0, 1, 2, -1} {
		rec := &goroutineRecorder{want: goid(), calls: map[string]int{}}
		c := cfg
		c.Parallelism = par
		c.Observer = rec
		if _, err := SolveContext(context.Background(), w, c); err != nil {
			t.Fatal(err)
		}
		for _, call := range []string{"stage1 start", "stage1 done", "stage2 start", "stage2 done"} {
			if rec.calls[call] != 1 {
				t.Errorf("Parallelism %d: %d %s callbacks, want 1", par, rec.calls[call], call)
			}
		}
		// A batch and the final flush; at −1 more than two shards may
		// leave the first below a batch.
		if n := rec.calls["stage1 progress"]; n < 2 && par >= 0 {
			t.Errorf("Parallelism %d: %d stage1 progress callbacks, want a batch and the flush", par, n)
		}
		if n := rec.calls["stage2 progress"]; n < 2 {
			t.Errorf("Parallelism %d: %d stage2 progress callbacks, want a batch and the flush", par, n)
		}
		for _, s := range rec.stray {
			t.Errorf("Parallelism %d: %s, want the caller's %d", par, s, rec.want)
		}
	}
}
