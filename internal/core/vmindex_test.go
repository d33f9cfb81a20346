package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// brute-force references for the two index structures, driven by the same
// random op sequences.

func TestFreeTreeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var ft freeTree
	var ref []int64
	for step := 0; step < 5000; step++ {
		switch {
		case len(ref) == 0 || rng.Intn(4) == 0: // add
			v := rng.Int63n(1000) - 100 // negatives: a re-rated, overfull Rehomer VM
			ft.add(v)
			ref = append(ref, v)
		case rng.Intn(2) == 0: // point update
			i := rng.Intn(len(ref))
			v := rng.Int63n(1000) - 100
			ft.set(i, v)
			ref[i] = v
		default: // query
			need := rng.Int63n(1100) - 150
			want := -1
			for i, v := range ref {
				if v >= need {
					want = i
					break
				}
			}
			if got := ft.firstAtLeast(need); got != want {
				t.Fatalf("step %d: firstAtLeast(%d) = %d, want %d (frees %v)", step, need, got, want, ref)
			}
			wantMax, wantIdx := int64(unusedLeaf), -1
			for i, v := range ref {
				if v > wantMax {
					wantMax, wantIdx = v, i
				}
			}
			if gotMax, gotIdx := ft.maxFree(); gotMax != wantMax || gotIdx != wantIdx {
				t.Fatalf("step %d: maxFree = (%d,%d), want (%d,%d)", step, gotMax, gotIdx, wantMax, wantIdx)
			}
		}
	}
}

func TestFreeOrderAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fo := newFreeOrder()
	var ref []int64 // ref[i] = free of VM i
	for step := 0; step < 5000; step++ {
		switch {
		case len(ref) == 0 || rng.Intn(4) == 0: // add VM
			v := rng.Int63n(500)
			fo.add(int32(len(ref)), v)
			ref = append(ref, v)
		case rng.Intn(2) == 0: // update a VM's free
			i := rng.Intn(len(ref))
			v := rng.Int63n(500)
			fo.update(int32(i), v)
			ref[i] = v
		default: // ceiling query: min (free, id) with free ≥ need
			need := rng.Int63n(600)
			want := int32(-1)
			for i, v := range ref {
				if v < need {
					continue
				}
				if want < 0 || v < ref[want] || (v == ref[want] && int32(i) < want) {
					want = int32(i)
				}
			}
			if got := fo.ceiling(need); got != want {
				t.Fatalf("step %d: ceiling(%d) = %d, want %d (frees %v)", step, need, got, want, ref)
			}
		}
	}
}

// The slot table's host entries carry each placement's position: a
// packing run's queries return the naive scan's answers while dropping
// hosts that fell below the topic's rate for good, the table's own query
// drops none, and a swap-remove or a slot move fixes up the entries it
// moves.
func TestHostQueries(t *testing.T) {
	ix := &vmIndex{slotTable: newSlotTable(&Allocation{}, 0)}
	// Deploy 5 VMs of capacity 100 and give topic 7 a presence on VMs
	// 0, 2, 4 with varying free capacities.
	for i := 0; i < 5; i++ {
		ix.deploy(testModel(100).Instance, 100)
	}
	rb := int64(10)
	one := []workload.SubID{0}
	ix.place(0, 7, rb, one)
	ix.place(2, 7, rb, one)
	ix.place(4, 7, rb, one)
	// frees now: vm0=80, vm2=80, vm4=80 (20 each for in+out), others 100.
	// Drain vm0 below rb with another topic's incoming stream.
	ix.place(0, 8, 75, nil) // free 80−75 = 5 < rb
	if hs := ix.hosts[7]; !slices.Equal(hs, []hostRef{{0, 0}, {2, 0}, {4, 0}}) {
		t.Errorf("topic 7 hosts = %v, want slots 0, 2, 4 at placement 0", hs)
	}
	if hs := ix.hosts[8]; !slices.Equal(hs, []hostRef{{0, 1}}) {
		t.Errorf("topic 8 hosts = %v, want slot 0 at placement 1", hs)
	}
	if got := ix.freestHost(7, rb); got != 2 || len(ix.hosts[7]) != 3 {
		t.Errorf("freestHost = %d with %d hosts left, want 2 (tie 80/80 → lowest index) and all 3", got, len(ix.hosts[7]))
	}
	if got := ix.firstHost(7, rb); got != 2 {
		t.Errorf("firstHost = %d, want 2 (vm0 dropped at free=5)", got)
	}
	if hs := ix.hosts[7]; !slices.Equal(hs, []hostRef{{2, 0}, {4, 0}}) {
		t.Errorf("topic 7 hosts after the drop = %v, want slots 2, 4", hs)
	}
	ix.place(2, 7, rb, []workload.SubID{1, 2, 3}) // vm2 free 80→50
	if got, free := ix.tightestHost(7, rb); got != 2 || free != 50 {
		t.Errorf("tightestHost = (%d,%d), want (2,50)", got, free)
	}
	if got := ix.freestHost(7, rb); got != 4 {
		t.Errorf("freestHost = %d, want 4 (free 80 beats 50)", got)
	}

	// Slot 0 hosts topics 7 and 8, slot 2 topics 8 and 9; slot 1 is empty.
	tb := newSlotTable(&Allocation{}, 0)
	for i := 0; i < 3; i++ {
		tb.deploy(testModel(100).Instance, 100)
	}
	tb.place(0, 7, rb, one)
	tb.place(0, 8, rb, one)
	tb.place(2, 8, rb, one)
	tb.place(2, 9, rb, one)
	// Dissolving topic 7 on slot 0 swap-removes it: topic 8's placement
	// moves to index 0, and its entry follows.
	tb.removeSub(0, 7, rb, 0)
	if len(tb.hosts[7]) != 0 || !slices.Equal(tb.hosts[8], []hostRef{{0, 0}, {2, 0}}) {
		t.Errorf("after the swap-remove: topic 7 hosts %v, topic 8 hosts %v", tb.hosts[7], tb.hosts[8])
	}
	tb.move(2, 1)
	tb.trimTrailingEmpty()
	if !slices.Equal(tb.hosts[8], []hostRef{{0, 0}, {1, 0}}) || !slices.Equal(tb.hosts[9], []hostRef{{1, 1}}) {
		t.Errorf("after moving slot 2 to 1: topic 8 hosts %v, topic 9 hosts %v", tb.hosts[8], tb.hosts[9])
	}
	if len(tb.alloc.VMs) != 2 || tb.alloc.VMs[1].ID != 1 || tb.tree.query(1) != 60 {
		t.Errorf("after the move and trim: %d slots, slot 1 ID %d free %d", len(tb.alloc.VMs), tb.alloc.VMs[1].ID, tb.tree.query(1))
	}
}
