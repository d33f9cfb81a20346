package core

import (
	"math/rand"
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

// Host lists must return the naive scan's answers while pruning hosts that
// fell below the topic's rate for good.
func TestHostQueries(t *testing.T) {
	ix := newVMIndex(false)
	// Deploy 5 VMs of capacity 100 and give topic 7 a presence on VMs
	// 0, 2, 4 with varying free capacities.
	for i := 0; i < 5; i++ {
		ix.deploy(testModel(100).Instance, 100)
	}
	rb := int64(10)
	one := []workload.SubID{0}
	ix.place(ix.vms[0], 7, rb, one)
	ix.place(ix.vms[2], 7, rb, one)
	ix.place(ix.vms[4], 7, rb, one)
	// frees now: vm0=80, vm2=80, vm4=80 (20 each for in+out), others 100.
	// Drain vm0 below rb with another topic's incoming stream.
	ix.place(ix.vms[0], 8, 75, nil) // free 80−75 = 5 < rb
	if got := ix.firstHost(7, rb); got != 2 {
		t.Errorf("firstHost = %d, want 2 (vm0 pruned at free=5)", got)
	}
	if hs := ix.hosts[7]; len(hs) != 2 || hs[0] != 2 || hs[1] != 4 {
		t.Errorf("hosts after prune = %v, want [2 4]", hs)
	}
	if got := ix.freestHost(7, rb); got != 2 {
		t.Errorf("freestHost = %d, want 2 (tie 80/80 → lowest index)", got)
	}
	ix.place(ix.vms[2], 7, rb, []workload.SubID{1, 2, 3}) // vm2 free 80→50
	if got, free := ix.tightestHost(7, rb); got != 2 || free != 50 {
		t.Errorf("tightestHost = (%d,%d), want (2,50)", got, free)
	}
	if got := ix.freestHost(7, rb); got != 4 {
		t.Errorf("freestHost = %d, want 4 (free 80 beats 50)", got)
	}
}
