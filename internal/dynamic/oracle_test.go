package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Test-only oracles: map-based migration and placement diffs, which state
// the semantics of the pair-row merge and the sorted-merge step diff in
// the most direct form.

// oracleMigrationBetween maps every pair to the first VM index hosting it
// in each allocation and compares the maps.
func oracleMigrationBetween(before, after *core.Allocation) MigrationStats {
	type key struct {
		t workload.TopicID
		v workload.SubID
	}
	host := func(a *core.Allocation) map[key]int {
		m := make(map[key]int)
		if a == nil {
			return m
		}
		for i, vm := range a.VMs {
			for _, p := range vm.Placements {
				for _, v := range p.Subs {
					k := key{p.Topic, v}
					if _, ok := m[k]; !ok {
						m[k] = i
					}
				}
			}
		}
		return m
	}
	hb, ha := host(before), host(after)
	var stats MigrationStats
	for k, vm := range ha {
		if old, ok := hb[k]; ok && old == vm {
			stats.PairsKept++
		} else {
			stats.PairsMoved++
		}
		delete(hb, k)
	}
	// Pairs present before but dropped now also count as moved.
	stats.PairsMoved += int64(len(hb))
	return stats
}

// oraclePlacementSteps diffs each placement of vm against a per-topic
// subscriber set of other.
func oraclePlacementSteps(op StepOp, slot int, vm, other *core.VM) []Step {
	if vm == nil {
		return nil
	}
	otherSubs := make(map[workload.TopicID]map[workload.SubID]bool)
	if other != nil {
		for _, p := range other.Placements {
			set := make(map[workload.SubID]bool, len(p.Subs))
			for _, v := range p.Subs {
				set[v] = true
			}
			otherSubs[p.Topic] = set
		}
	}
	var steps []Step
	for _, p := range vm.Placements {
		have := otherSubs[p.Topic]
		var subs []workload.SubID
		for _, v := range p.Subs {
			if !have[v] {
				subs = append(subs, v)
			}
		}
		if len(subs) == 0 {
			continue
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
		steps = append(steps, Step{Op: op, VM: slot, Topic: p.Topic, Subs: subs})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].Topic < steps[j].Topic })
	return steps
}

// oracleStepsBetween is StepsBetween on the oracle placement diff.
func oracleStepsBetween(before, after *core.Allocation) []Step {
	return stepsBetween(before, after, oraclePlacementSteps)
}

// Exported for the differential test on the scale sweep's workload, which
// lives in the external test package because experiments imports dynamic.
var (
	MigrationBetween       = migrationBetween
	OracleMigrationBetween = oracleMigrationBetween
	OracleStepsBetween     = oracleStepsBetween
	StepsDiff              = stepsDiff
)

// stepsDiff describes the first difference between two step sequences,
// field by field, or returns "" when they are equal.
func stepsDiff(got, want []Step) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d steps, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.Op != w.Op:
			return fmt.Sprintf("step %d: op %s, oracle %s", i, g.Op, w.Op)
		case g.VM != w.VM:
			return fmt.Sprintf("step %d: vm %d, oracle %d", i, g.VM, w.VM)
		case g.Instance != w.Instance:
			return fmt.Sprintf("step %d: instance %v, oracle %v", i, g.Instance, w.Instance)
		case g.Capacity != w.Capacity:
			return fmt.Sprintf("step %d: capacity %d, oracle %d", i, g.Capacity, w.Capacity)
		case g.Topic != w.Topic:
			return fmt.Sprintf("step %d: topic %d, oracle %d", i, g.Topic, w.Topic)
		case !slices.Equal(g.Subs, w.Subs):
			return fmt.Sprintf("step %d: subs %v, oracle %v", i, g.Subs, w.Subs)
		}
	}
	return ""
}

// randomVM draws a small VM over topics 0..7 and subscribers 0..9, so
// that pairs placed on two VMs and subscribers listed twice inside one
// placement are common. Topic and subscriber order are random; with small
// probability a topic appears twice on the VM.
func randomVM(rng *rand.Rand) *core.VM {
	types := []pricing.InstanceType{pricing.C3Large, pricing.C3XLarge}
	vm := &core.VM{Instance: types[rng.Intn(2)], CapacityBytesPerHour: int64(1000 * (1 + rng.Intn(2)))}
	topics := rng.Perm(8)[:rng.Intn(5)]
	if len(topics) > 0 && rng.Intn(10) == 0 {
		topics = append(topics, topics[0])
	}
	for _, t := range topics {
		subs := make([]workload.SubID, 1+rng.Intn(6))
		for k := range subs {
			subs[k] = workload.SubID(rng.Intn(10))
		}
		vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: workload.TopicID(t), Subs: subs})
	}
	return vm
}

func randomAllocation(rng *rand.Rand) *core.Allocation {
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return &core.Allocation{}
	}
	a := &core.Allocation{}
	for i := rng.Intn(6); i >= 0; i-- {
		a.VMs = append(a.VMs, randomVM(rng))
	}
	return a
}

// mutateAllocation derives a related allocation from a, so that kept
// pairs are common: slots are replaced by a new instance type, redrawn,
// moved subscribers, retired off the end, or booted past it.
func mutateAllocation(rng *rand.Rand, a *core.Allocation) *core.Allocation {
	out := &core.Allocation{}
	if a == nil {
		return out
	}
	for _, vm := range a.VMs {
		out.VMs = append(out.VMs, cloneVM(vm))
	}
	for _, vm := range out.VMs {
		switch rng.Intn(6) {
		case 0:
			vm.Instance = pricing.C3XLarge // replaced unless it already was
		case 1:
			vm.CapacityBytesPerHour++ // replaced
		case 2:
			*vm = *randomVM(rng)
		case 3:
			if len(vm.Placements) > 0 {
				p := &vm.Placements[rng.Intn(len(vm.Placements))]
				p.Subs = append(p.Subs[1:], workload.SubID(rng.Intn(10)))
			}
		}
	}
	if n := len(out.VMs); n > 0 && rng.Intn(3) == 0 {
		out.VMs = out.VMs[:rng.Intn(n)] // retire a suffix
	}
	for i := rng.Intn(3); i > 0; i-- {
		out.VMs = append(out.VMs, randomVM(rng))
	}
	return out
}

// TestDiffsMatchOracles runs the pair-row migration diff and the
// mark-based step diff against the map-based oracles on random small
// allocations: unrelated pairs, derived pairs (kept, moved, replaced,
// retired and booted slots), and nil and empty allocations on either side.
func TestDiffsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for c := 0; c < 600; c++ {
		before := randomAllocation(rng)
		var after *core.Allocation
		switch c % 3 {
		case 0:
			after = randomAllocation(rng)
		default:
			after = mutateAllocation(rng, before)
		}
		if c%2 == 1 {
			before, after = after, before
		}
		if got, want := migrationBetween(before, after), oracleMigrationBetween(before, after); got != want {
			t.Fatalf("case %d: migration %+v, oracle %+v", c, got, want)
		}
		if d := stepsDiff(StepsBetween(before, after), oracleStepsBetween(before, after)); d != "" {
			t.Fatalf("case %d: %s", c, d)
		}
	}
}

// shuffled copies a, permuting every VM's placements and every placement's
// subscribers: the same state in another order.
func shuffled(rng *rand.Rand, a *core.Allocation) *core.Allocation {
	if a == nil {
		return nil
	}
	out := &core.Allocation{}
	for _, vm := range a.VMs {
		c := cloneVM(vm)
		rng.Shuffle(len(c.Placements), func(i, j int) { c.Placements[i], c.Placements[j] = c.Placements[j], c.Placements[i] })
		for _, p := range c.Placements {
			rng.Shuffle(len(p.Subs), func(i, j int) { p.Subs[i], p.Subs[j] = p.Subs[j], p.Subs[i] })
		}
		out.VMs = append(out.VMs, c)
	}
	return out
}

// TestSameAllocationMatchesFingerprint: SameAllocation agrees with
// fingerprint equality on reordered copies, derived allocations and
// unrelated ones — subscribers repeated inside a placement, a topic placed
// twice on one VM, and nil and empty allocations included.
func TestSameAllocationMatchesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	equal := 0
	for c := 0; c < 900; c++ {
		a := randomAllocation(rng)
		var b *core.Allocation
		switch c % 3 {
		case 0:
			b = shuffled(rng, a)
		case 1:
			b = shuffled(rng, mutateAllocation(rng, a))
		default:
			b = randomAllocation(rng)
		}
		want := StateFingerprint(nil, a) == StateFingerprint(nil, b)
		if got := SameAllocation(a, b); got != want {
			t.Fatalf("case %d: SameAllocation %v, fingerprints equal %v", c, got, want)
		}
		if got := SameAllocation(b, a); got != want {
			t.Fatalf("case %d: SameAllocation(b, a) %v, fingerprints equal %v", c, got, want)
		}
		if want {
			equal++
		}
	}
	if equal < 300 {
		t.Fatalf("only %d of 900 cases compare equal allocations", equal)
	}
}

// TestCheckDeltaMatchesApplyDelta: CheckDelta accepts exactly the
// workloads ApplyDelta produces — its own result, and a workload another
// delta reaches only when that one has the same rates and interests.
func TestCheckDeltaMatchesApplyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randomDelta := func(w *workload.Workload) Delta {
		d := Delta{NewSubscribers: rng.Intn(2)}
		if rng.Intn(2) == 0 {
			d.NewTopics = []int64{1 + int64(rng.Intn(9))}
		}
		numT, numV := w.NumTopics()+len(d.NewTopics), w.NumSubscribers()+d.NewSubscribers
		if numT == 0 || numV == 0 {
			return d
		}
		if rng.Intn(2) == 0 {
			d.RateChanges = map[workload.TopicID]int64{workload.TopicID(rng.Intn(numT)): 1 + int64(rng.Intn(9))}
		}
		seen := make(map[workload.Pair]bool)
		for i := rng.Intn(4); i > 0; i-- {
			p := workload.Pair{Topic: workload.TopicID(rng.Intn(numT)), Sub: workload.SubID(rng.Intn(numV))}
			if seen[p] {
				continue
			}
			seen[p] = true
			if rng.Intn(2) == 0 {
				d.Subscribe = append(d.Subscribe, p)
			} else {
				d.Unsubscribe = append(d.Unsubscribe, p)
			}
		}
		return d
	}
	accepted := 0
	for c := 0; c < 500; c++ {
		w, err := tracegenRandom(rng)
		if err != nil {
			t.Fatal(err)
		}
		d := randomDelta(w)
		next, err := ApplyDelta(w, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckDelta(w, next, d); err != nil {
			t.Fatalf("case %d: CheckDelta refuses ApplyDelta's own result: %v", c, err)
		}
		other, err := ApplyDelta(w, randomDelta(w))
		if err != nil {
			t.Fatal(err)
		}
		same := StateFingerprint(other, nil) == StateFingerprint(next, nil)
		if err := CheckDelta(w, other, d); (err == nil) != same {
			t.Fatalf("case %d: CheckDelta err %v, workloads equal %v", c, err, same)
		}
		if same {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no case drew two deltas reaching the same workload")
	}
}

// tracegenRandom draws a small workload whose interests are stored
// ascending, as every workload constructor keeps them.
func tracegenRandom(rng *rand.Rand) (*workload.Workload, error) {
	b := workload.NewBuilder()
	numT := 1 + rng.Intn(5)
	for t := 0; t < numT; t++ {
		b.AddTopic(fmt.Sprintf("t%d", t), 1+int64(rng.Intn(9)))
	}
	numV := 1 + rng.Intn(6)
	for v := 0; v < numV; v++ {
		name := fmt.Sprintf("v%d", v)
		b.AddSubscriber(name)
		for _, t := range rng.Perm(numT)[:rng.Intn(numT+1)] {
			b.AddSubscription(name, fmt.Sprintf("t%d", t))
		}
	}
	return b.Build()
}
