package exact

import (
	"context"
	"errors"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// The reconstructed allocation must match the DP's accounting and pass the
// full solver postcondition oracle.
func TestExactAllocationVerifies(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7, 3, 9},
		[][]workload.TopicID{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	cfg := core.Config{Tau: 6, MessageBytes: 1, Model: testModel(30)}
	sol, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Allocation == nil {
		t.Fatal("Solution.Allocation is nil")
	}
	if got := sol.Allocation.NumVMs(); got != sol.VMs {
		t.Errorf("allocation has %d VMs, DP reports %d", got, sol.VMs)
	}
	if got := sol.Allocation.TotalBytesPerHour(); got != sol.BytesPerHour {
		t.Errorf("allocation carries %d B/h, DP reports %d", got, sol.BytesPerHour)
	}
	// The DP floors each block's transfer cost separately; Allocation.Cost
	// floors once on the total, so they may differ by < 1 µ$ per VM.
	if got, want := int64(sol.Allocation.Cost(cfg.Model)), int64(sol.Cost); got < want || got > want+int64(sol.VMs) {
		t.Errorf("allocation costs %d µ$, DP reports %d µ$ (± %d rounding)", got, want, sol.VMs)
	}
	sel, err := core.SelectionFromPairs(w, sol.Selected)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAllocation(w, sel, sol.Allocation, cfg); err != nil {
		t.Errorf("reconstructed allocation fails verification: %v", err)
	}
}

// A cancelled context aborts the DP promptly with the context's error.
func TestExactCancellation(t *testing.T) {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 7, Subscribers: 2, MaxFollowings: 7, MaxRate: 9, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, w, core.Config{Tau: 5, MessageBytes: 1, Model: testModel(1 << 40)}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
