package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Test-only oracle: the crash repair as a scan over every VM per placement,
// the most direct statement of the rule core.Rehomer.RehomeGroup answers
// from its index.

// oracleRepairCrashGroup repairs the failure of vmIDs in alloc without
// touching it, returning the repaired allocation.
func oracleRepairCrashGroup(w *workload.Workload, alloc *core.Allocation, vmIDs []int) (RepairStats, *core.Allocation, error) {
	failedSet := make(map[int]bool, len(vmIDs))
	for _, id := range vmIDs {
		if failedSet[id] {
			return RepairStats{}, nil, fmt.Errorf("%w: VM %d listed twice in failure group", ErrBadDelta, id)
		}
		failedSet[id] = true
	}
	var failed []*core.VM
	var survivors []*core.VM
	for _, vm := range alloc.VMs {
		if failedSet[vm.ID] {
			failed = append(failed, vm)
			continue
		}
		survivors = append(survivors, cloneVM(vm))
	}
	for _, id := range vmIDs {
		if !slices.ContainsFunc(failed, func(vm *core.VM) bool { return vm.ID == id }) {
			return RepairStats{}, nil, fmt.Errorf("%w: %d", ErrUnknownVM, id)
		}
	}

	msg := alloc.MessageBytes
	stats := RepairStats{}
	type orphan struct {
		core.TopicPlacement
		origin *core.VM
	}
	var groups []orphan
	for _, f := range failed {
		for _, g := range f.Placements {
			groups = append(groups, orphan{TopicPlacement: g, origin: f})
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		wi := w.Rate(groups[i].Topic) * int64(len(groups[i].Subs))
		wj := w.Rate(groups[j].Topic) * int64(len(groups[j].Subs))
		if wi != wj {
			return wi > wj
		}
		return groups[i].Topic < groups[j].Topic
	})
	var newVMs []*core.VM
	for _, g := range groups {
		stats.PairsRehomed += int64(len(g.Subs))
		remaining := g.Subs
		rb := w.Rate(g.Topic) * msg
		for len(remaining) > 0 {
			vm, hasTopic := mostFreeFit(survivors, newVMs, g.Topic, rb)
			if vm == nil {
				vm = &core.VM{
					Instance:             g.origin.Instance,
					CapacityBytesPerHour: g.origin.CapacityBytesPerHour,
				}
				newVMs = append(newVMs, vm)
				stats.NewVMs++
				hasTopic = false
			}
			free := vm.FreeBytesPerHour()
			if !hasTopic {
				free -= rb
			}
			k := free / rb
			if k <= 0 {
				return RepairStats{}, nil, fmt.Errorf("%w: topic %d needs %d bytes/h for one pair, a fresh %s carries %d",
					core.ErrInfeasible, g.Topic, 2*rb, vm.Instance.Name, vm.CapacityBytesPerHour)
			}
			if k > int64(len(remaining)) {
				k = int64(len(remaining))
			}
			placeOn(vm, g.Topic, rb, remaining[:k], hasTopic)
			remaining = remaining[k:]
		}
	}

	repaired := &core.Allocation{
		VMs:          append(survivors, newVMs...),
		Fleet:        alloc.Fleet,
		MessageBytes: msg,
	}
	for i, vm := range repaired.VMs {
		vm.ID = i
	}
	stats.VMsAfter = repaired.NumVMs()
	return stats, repaired, nil
}

// cloneVM deep-copies a VM (placements included), keeping its ID.
func cloneVM(vm *core.VM) *core.VM {
	nv := &core.VM{
		ID:                   vm.ID,
		Instance:             vm.Instance,
		CapacityBytesPerHour: vm.CapacityBytesPerHour,
		Placements:           make([]core.TopicPlacement, len(vm.Placements)),
		OutBytesPerHour:      vm.OutBytesPerHour,
		InBytesPerHour:       vm.InBytesPerHour,
	}
	for i, p := range vm.Placements {
		subs := make([]workload.SubID, len(p.Subs))
		copy(subs, p.Subs)
		nv.Placements[i] = core.TopicPlacement{Topic: p.Topic, Subs: subs}
	}
	return nv
}

// mostFreeFit returns the VM (among survivors then newVMs) with the most
// free capacity — each measured against its own instance's cap — that can
// host at least one more pair of the topic, plus whether it already hosts
// the topic. It returns nil when none fits.
func mostFreeFit(survivors, newVMs []*core.VM, t workload.TopicID, rb int64) (*core.VM, bool) {
	var best *core.VM
	bestHas := false
	var bestFree int64 = -1
	consider := func(vm *core.VM) {
		free := vm.FreeBytesPerHour()
		has := vmHasTopic(vm, t)
		need := rb
		if !has {
			need = 2 * rb
		}
		if free >= need && free > bestFree {
			best, bestHas, bestFree = vm, has, free
		}
	}
	for _, vm := range survivors {
		consider(vm)
	}
	for _, vm := range newVMs {
		consider(vm)
	}
	return best, bestHas
}

func vmHasTopic(vm *core.VM, t workload.TopicID) bool {
	for _, p := range vm.Placements {
		if p.Topic == t {
			return true
		}
	}
	return false
}

func placeOn(vm *core.VM, t workload.TopicID, rb int64, subs []workload.SubID, hasTopic bool) {
	if hasTopic {
		for i := range vm.Placements {
			if vm.Placements[i].Topic == t {
				vm.Placements[i].Subs = append(vm.Placements[i].Subs, subs...)
				break
			}
		}
	} else {
		cp := make([]workload.SubID, len(subs))
		copy(cp, subs)
		vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: t, Subs: cp})
		vm.InBytesPerHour += rb
	}
	vm.OutBytesPerHour += rb * int64(len(subs))
}

// vmsDiff describes the first difference between two fleets — ID,
// instance, capacity, accounting, or placements in order — or "".
func vmsDiff(got, want []*core.VM) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d VMs, want %d", len(got), len(want))
	}
	for i, g := range got {
		x := want[i]
		switch {
		case g.ID != x.ID || g.Instance != x.Instance || g.CapacityBytesPerHour != x.CapacityBytesPerHour:
			return fmt.Sprintf("vm %d: id/instance/capacity %d/%s/%d, want %d/%s/%d",
				i, g.ID, g.Instance.Name, g.CapacityBytesPerHour, x.ID, x.Instance.Name, x.CapacityBytesPerHour)
		case g.InBytesPerHour != x.InBytesPerHour || g.OutBytesPerHour != x.OutBytesPerHour:
			return fmt.Sprintf("vm %d: in/out %d/%d, want %d/%d", i, g.InBytesPerHour, g.OutBytesPerHour, x.InBytesPerHour, x.OutBytesPerHour)
		case !slices.EqualFunc(g.Placements, x.Placements, func(a, b core.TopicPlacement) bool {
			return a.Topic == b.Topic && slices.Equal(a.Subs, b.Subs)
		}):
			return fmt.Sprintf("vm %d: placements %v, want %v", i, g.Placements, x.Placements)
		}
	}
	return ""
}

// reshapedFleet copies a solved allocation and redraws some VMs' types and
// capacities, so survivors carry their own caps (some over capacity) and
// some like-for-like replacements are too small for one pair.
func reshapedFleet(rng *rand.Rand, a *core.Allocation) *core.Allocation {
	out := &core.Allocation{Fleet: a.Fleet, MessageBytes: a.MessageBytes}
	for _, vm := range a.VMs {
		c := cloneVM(vm)
		switch rng.Intn(8) {
		case 0:
			c.CapacityBytesPerHour /= 8
		case 1:
			c.CapacityBytesPerHour /= 2
		case 2:
			c.Instance, c.CapacityBytesPerHour = pricing.C3XLarge, 2*c.CapacityBytesPerHour
		}
		out.VMs = append(out.VMs, c)
	}
	return out
}

// failureGroup draws the VM IDs of one failure: a single VM, a correlated
// group in random order, or the whole fleet; now and then an unknown or a
// repeated ID.
func failureGroup(rng *rand.Rand, n int) []int {
	var ids []int
	switch r := rng.Intn(10); {
	case r < 4 || n < 2:
		ids = []int{rng.Intn(n)}
	case r < 9:
		ids = rng.Perm(n)[:2+rng.Intn(min(3, n-1))]
	default:
		ids = rng.Perm(n)
	}
	switch rng.Intn(25) {
	case 0:
		ids = append(ids, n+rng.Intn(3))
	case 1:
		ids = append(ids, ids[0])
	}
	return ids
}

// TestRepairMatchesOracle runs single and correlated group crashes over
// solved allocations at several capacities, with redrawn per-VM types and
// capacities, against the scanning oracle: the same stats, error text and
// repaired fleet, VM by VM, and the current allocation left untouched.
func TestRepairMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var cases, infeasible, deployed int
	for seed := int64(0); seed < 12; seed++ {
		w := sampleWorkload(t, 100+seed)
		for _, capacity := range []int64{150, 300, 600, 1500} {
			res, err := core.SolveContext(context.Background(), w, testConfig(30, capacity))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 15; k++ {
				alloc := reshapedFleet(rng, res.Allocation)
				before := make([]*core.VM, len(alloc.VMs))
				for i, vm := range alloc.VMs {
					before[i] = cloneVM(vm)
				}
				ids := failureGroup(rng, alloc.NumVMs())
				wantStats, wantAlloc, wantErr := oracleRepairCrashGroup(w, alloc, ids)

				p := &Provisioner{}
				p.Adopt(w, &core.Result{Selection: res.Selection, Allocation: alloc})
				gotStats, gotErr := p.RepairCrashGroupContext(context.Background(), ids)
				cases++
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("case %d (ids %v): err %v, oracle %v", cases, ids, gotErr, wantErr)
				}
				if gotStats != wantStats {
					t.Fatalf("case %d (ids %v): stats %+v, oracle %+v", cases, ids, gotStats, wantStats)
				}
				if d := vmsDiff(alloc.VMs, before); d != "" {
					t.Fatalf("case %d: repair mutated the current allocation: %s", cases, d)
				}
				if wantErr != nil {
					if errors.Is(wantErr, core.ErrInfeasible) {
						infeasible++
					}
					if p.Allocation() != alloc {
						t.Fatalf("case %d: failed repair replaced the allocation", cases)
					}
					continue
				}
				deployed += wantStats.NewVMs
				if d := vmsDiff(p.Allocation().VMs, wantAlloc.VMs); d != "" {
					t.Fatalf("case %d (ids %v): %s", cases, ids, d)
				}
				// The repaired fleet shares no subscriber lists with the
				// current allocation.
				for _, vm := range p.Allocation().VMs {
					for _, pl := range vm.Placements {
						clear(pl.Subs[:cap(pl.Subs)])
					}
				}
				if d := vmsDiff(alloc.VMs, before); d != "" {
					t.Fatalf("case %d: repaired fleet aliases the current allocation: %s", cases, d)
				}
			}
		}
	}
	if infeasible == 0 || deployed == 0 {
		t.Fatalf("%d cases: %d replacements too small, %d VMs deployed; want both reached", cases, infeasible, deployed)
	}
	t.Logf("%d repairs, %d with a replacement too small for one pair, %d VMs deployed", cases, infeasible, deployed)
}
