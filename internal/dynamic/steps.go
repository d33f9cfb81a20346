package dynamic

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// StepOp names one kind of deployment action in a plan.
type StepOp string

// The four step operations a plan is built from. A reconfiguration is
// expressed as removals, then retirements, then boots, then placements, so
// that replaying the steps in order never touches a retired VM and every
// placement lands on a VM that already exists.
const (
	// OpBootVM deploys a fresh VM of the given instance type at slot VM.
	OpBootVM StepOp = "boot-vm"
	// OpRetireVM shuts slot VM down; all of its placements must have been
	// removed first.
	OpRetireVM StepOp = "retire-vm"
	// OpPlace adds the listed subscribers of Topic to slot VM.
	OpPlace StepOp = "place"
	// OpRemove stops serving the listed subscribers of Topic from slot VM.
	OpRemove StepOp = "remove"
)

// Step is one executable action of a deployment plan. Steps address VMs by
// slot index in a shared coordinate space: slot i of the pre-apply
// allocation and slot i of the target allocation are the same broker, new
// slots are appended past the pre-apply fleet, and retired slots are the
// pre-apply slots past the target fleet (plus replaced slots, which are
// retired and re-booted in place).
type Step struct {
	Op StepOp
	// VM is the slot index the step targets.
	VM int
	// Instance and Capacity describe the VM a boot-vm step deploys.
	Instance pricing.InstanceType
	Capacity int64
	// Topic and Subs are the pairs a place/remove step adds or drops.
	Topic workload.TopicID
	Subs  []workload.SubID
}

// String renders the step for logs and plan review.
func (s Step) String() string {
	switch s.Op {
	case OpBootVM:
		return fmt.Sprintf("boot vm %d (%s, %d bytes/h)", s.VM, s.Instance.Name, s.Capacity)
	case OpRetireVM:
		return fmt.Sprintf("retire vm %d", s.VM)
	case OpPlace:
		return fmt.Sprintf("place topic %d ×%d on vm %d", s.Topic, len(s.Subs), s.VM)
	case OpRemove:
		return fmt.Sprintf("remove topic %d ×%d from vm %d", s.Topic, len(s.Subs), s.VM)
	default:
		return fmt.Sprintf("unknown step %q", string(s.Op))
	}
}

// StepsBetween extracts the step sequence transforming the before
// allocation into the after allocation, diffing placements by VM slot (the
// same position-based identity MigrationStatsBetween measures churn with).
// The result replays deterministically: removals first (slot then topic order),
// then retirements, then boots, then placements, so ReplaySteps on before
// reproduces after exactly. A kept slot whose instance type or capacity
// changed is replaced in place (retire + boot).
func StepsBetween(before, after *core.Allocation) []Step {
	var d slotDiff
	return stepsBetween(before, after, d.steps)
}

// stepsBetween takes the placement diff as a parameter for the test oracle.
func stepsBetween(before, after *core.Allocation, diff func(op StepOp, slot int, vm, other *core.VM) []Step) []Step {
	lenB, lenA := 0, 0
	if before != nil {
		lenB = len(before.VMs)
	}
	if after != nil {
		lenA = len(after.VMs)
	}
	n := lenB
	if lenA > n {
		n = lenA
	}

	// replaced[i] reports that kept slot i changes flavor and must be
	// rebuilt rather than diffed.
	replaced := make([]bool, n)
	for i := 0; i < lenB && i < lenA; i++ {
		b, a := before.VMs[i], after.VMs[i]
		if b.Instance != a.Instance || b.CapacityBytesPerHour != a.CapacityBytesPerHour {
			replaced[i] = true
		}
	}

	var removes, retires, boots, places []Step
	for i := 0; i < n; i++ {
		var bv, av *core.VM
		if i < lenB {
			bv = before.VMs[i]
		}
		if i < lenA && !replaced[i] {
			av = after.VMs[i]
		}
		removes = append(removes, diff(OpRemove, i, bv, av)...)
		if bv != nil && (i >= lenA || replaced[i]) {
			retires = append(retires, Step{Op: OpRetireVM, VM: i})
		}
	}
	for i := 0; i < lenA; i++ {
		av := after.VMs[i]
		if i >= lenB || replaced[i] {
			boots = append(boots, Step{
				Op: OpBootVM, VM: i,
				Instance: av.Instance,
				Capacity: av.CapacityBytesPerHour,
			})
		}
		var bv *core.VM
		if i < lenB && !replaced[i] {
			bv = before.VMs[i]
		}
		places = append(places, diff(OpPlace, i, av, bv)...)
	}

	steps := make([]Step, 0, len(removes)+len(retires)+len(boots)+len(places))
	steps = append(steps, removes...)
	steps = append(steps, retires...)
	steps = append(steps, boots...)
	steps = append(steps, places...)
	return steps
}

// slotDiff is the placement diff behind StepsBetween. It sorts nothing
// but the steps it emits: other's placements are found through a mark
// indexed by topic, and a subscriber list is diffed against another by
// stamping the other's subscribers into a mark indexed by subscriber.
type slotDiff struct {
	at    []int32  // at[t]: 1 + index of other's placement of topic t, 0 for none
	mark  []uint32 // mark[v] == stamp: v is in the list being diffed against
	stamp uint32
}

// steps emits one op-typed step per topic of vm whose subscriber set
// extends past other's, in stable ascending topic order with ascending
// subs. With op=OpRemove, vm is the before slot and other the after slot
// (subs present before but not after are removed); with op=OpPlace the
// roles flip. A topic other places twice is diffed against its last
// placement, as a stable topic sort of other would pair it.
func (d *slotDiff) steps(op StepOp, slot int, vm, other *core.VM) []Step {
	if vm == nil {
		return nil
	}
	var theirs []core.TopicPlacement
	if other != nil {
		theirs = other.Placements
	}
	for j, q := range theirs {
		d.at = growTo(d.at, int(q.Topic)+1)
		d.at[q.Topic] = int32(j + 1)
	}
	var steps []Step
	for _, p := range vm.Placements {
		var have []workload.SubID
		if int(p.Topic) < len(d.at) && d.at[p.Topic] > 0 {
			have = theirs[d.at[p.Topic]-1].Subs
		}
		if subs := d.missing(p.Subs, have); len(subs) > 0 {
			steps = append(steps, Step{Op: op, VM: slot, Topic: p.Topic, Subs: subs})
		}
	}
	for _, q := range theirs {
		d.at[q.Topic] = 0
	}
	if !slices.IsSortedFunc(steps, cmpStepTopic) {
		slices.SortStableFunc(steps, cmpStepTopic)
	}
	return steps
}

// missing returns the entries of subs (repeats included) that have lacks,
// ascending.
func (d *slotDiff) missing(subs, have []workload.SubID) []workload.SubID {
	if slices.Equal(subs, have) {
		return nil
	}
	d.stamp++
	if d.stamp == 0 { // wrapped: old stamps could collide
		clear(d.mark)
		d.stamp = 1
	}
	for _, v := range have {
		d.mark = growTo(d.mark, int(v)+1)
		d.mark[v] = d.stamp
	}
	var out []workload.SubID
	for _, v := range subs {
		if int(v) >= len(d.mark) || d.mark[v] != d.stamp {
			out = append(out, v)
		}
	}
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	return out
}

func cmpStepTopic(a, b Step) int { return cmp.Compare(a.Topic, b.Topic) }

// growTo returns s extended with zero values to length n when shorter.
func growTo[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// byTopic returns the placements in stable ascending topic order, sorting
// a copy only when they are not in that order already.
func byTopic(ps []core.TopicPlacement) []core.TopicPlacement {
	if slices.IsSortedFunc(ps, cmpTopic) {
		return ps
	}
	ps = slices.Clone(ps)
	slices.SortStableFunc(ps, cmpTopic)
	return ps
}

func cmpTopic(a, b core.TopicPlacement) int { return cmp.Compare(a.Topic, b.Topic) }

// Typed step-replay errors.
var (
	// ErrBadStep reports a step that cannot be executed against the
	// current working fleet (out-of-range slot, retiring a non-empty VM,
	// removing a pair that is not placed, …).
	ErrBadStep = fmt.Errorf("dynamic: step cannot be applied")
)

// ReplaySteps executes a step sequence against a copy of the base
// allocation and returns the resulting allocation, never mutating base.
// Placement accounting (In/OutBytesPerHour) is rebuilt under the target
// workload's rates — replaying a plan reprices every kept placement to the
// snapshot the plan was computed for. Steps are validated structurally
// (slots exist, removed pairs are present, retired slots are empty, booted
// slots are free); capacity is not enforced here, because the planner that
// emitted the steps already applied its own capacity discipline (including
// the elastic controller's headroom-derated packing) and the caller checks
// the replayed state against the plan's target. Slots keep their
// coordinates for the whole replay (retired holes are compacted at the
// end), so steps can address replaced slots mid-sequence.
func ReplaySteps(base *core.Allocation, target *workload.Workload, messageBytes int64, steps []Step) (*core.Allocation, error) {
	lenB := 0
	if base != nil {
		lenB = len(base.VMs)
	}
	slots := make([]*core.VM, lenB)
	for i := 0; i < lenB; i++ {
		vm := base.VMs[i]
		nv := &core.VM{
			ID:                   i,
			Instance:             vm.Instance,
			CapacityBytesPerHour: vm.CapacityBytesPerHour,
			Placements:           make([]core.TopicPlacement, 0, len(vm.Placements)),
		}
		for _, p := range vm.Placements {
			if int(p.Topic) >= target.NumTopics() {
				return nil, fmt.Errorf("%w: base slot %d serves topic %d outside the target workload (%d topics)",
					ErrBadStep, i, p.Topic, target.NumTopics())
			}
			subs := make([]workload.SubID, len(p.Subs))
			copy(subs, p.Subs)
			rb := target.Rate(p.Topic) * messageBytes
			nv.Placements = append(nv.Placements, core.TopicPlacement{Topic: p.Topic, Subs: subs})
			nv.InBytesPerHour += rb
			nv.OutBytesPerHour += rb * int64(len(subs))
		}
		slots[i] = nv
	}
	for i, s := range steps {
		if err := applyStep(&slots, target, messageBytes, s); err != nil {
			return nil, fmt.Errorf("step %d (%s): %w", i, s, err)
		}
	}
	return compactSlots(slots, base, messageBytes)
}

// applyStep mutates the slot table for one step. grow points at the
// caller's slice so boot-vm can append a fresh trailing slot.
func applyStep(grow *[]*core.VM, target *workload.Workload, messageBytes int64, s Step) error {
	switch s.Op {
	case OpBootVM:
		if s.VM == len(*grow) {
			*grow = append(*grow, nil)
		}
		if s.VM < 0 || s.VM >= len(*grow) {
			return fmt.Errorf("%w: boot slot %d outside fleet of %d", ErrBadStep, s.VM, len(*grow))
		}
		if (*grow)[s.VM] != nil {
			return fmt.Errorf("%w: slot %d is already occupied", ErrBadStep, s.VM)
		}
		(*grow)[s.VM] = &core.VM{
			ID:                   s.VM,
			Instance:             s.Instance,
			CapacityBytesPerHour: s.Capacity,
		}
		return nil
	case OpRetireVM:
		vm, err := slotAt(*grow, s.VM)
		if err != nil {
			return err
		}
		if len(vm.Placements) != 0 {
			return fmt.Errorf("%w: retiring slot %d with %d placements still on it", ErrBadStep, s.VM, len(vm.Placements))
		}
		(*grow)[s.VM] = nil
		return nil
	case OpPlace:
		vm, err := slotAt(*grow, s.VM)
		if err != nil {
			return err
		}
		if int(s.Topic) < 0 || int(s.Topic) >= target.NumTopics() {
			return fmt.Errorf("%w: topic %d outside the workload (%d topics)", ErrBadStep, s.Topic, target.NumTopics())
		}
		for _, v := range s.Subs {
			if int(v) < 0 || int(v) >= target.NumSubscribers() {
				return fmt.Errorf("%w: subscriber %d outside the workload (%d subscribers)", ErrBadStep, v, target.NumSubscribers())
			}
		}
		rb := target.Rate(s.Topic) * messageBytes
		idx := -1
		for i := range vm.Placements {
			if vm.Placements[i].Topic == s.Topic {
				idx = i
				break
			}
		}
		if idx < 0 {
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: s.Topic})
			idx = len(vm.Placements) - 1
			vm.InBytesPerHour += rb
		}
		vm.Placements[idx].Subs = append(vm.Placements[idx].Subs, s.Subs...)
		vm.OutBytesPerHour += rb * int64(len(s.Subs))
		return nil
	case OpRemove:
		vm, err := slotAt(*grow, s.VM)
		if err != nil {
			return err
		}
		idx := -1
		for i := range vm.Placements {
			if vm.Placements[i].Topic == s.Topic {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("%w: slot %d does not serve topic %d", ErrBadStep, s.VM, s.Topic)
		}
		if int(s.Topic) >= target.NumTopics() {
			return fmt.Errorf("%w: topic %d outside the workload", ErrBadStep, s.Topic)
		}
		drop := make(map[workload.SubID]bool, len(s.Subs))
		for _, v := range s.Subs {
			drop[v] = true
		}
		p := &vm.Placements[idx]
		kept := p.Subs[:0]
		removed := 0
		for _, v := range p.Subs {
			if drop[v] {
				removed++
			} else {
				kept = append(kept, v)
			}
		}
		if removed != len(drop) {
			return fmt.Errorf("%w: slot %d serves only %d of the %d listed pairs of topic %d",
				ErrBadStep, s.VM, removed, len(drop), s.Topic)
		}
		rb := target.Rate(s.Topic) * messageBytes
		p.Subs = kept
		vm.OutBytesPerHour -= rb * int64(removed)
		if len(p.Subs) == 0 {
			vm.Placements = append(vm.Placements[:idx], vm.Placements[idx+1:]...)
			vm.InBytesPerHour -= rb
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadStep, string(s.Op))
	}
}

func slotAt(slots []*core.VM, i int) (*core.VM, error) {
	if i < 0 || i >= len(slots) {
		return nil, fmt.Errorf("%w: slot %d outside fleet of %d", ErrBadStep, i, len(slots))
	}
	if slots[i] == nil {
		return nil, fmt.Errorf("%w: slot %d is retired", ErrBadStep, i)
	}
	return slots[i], nil
}

// compactSlots drops retired slots and re-densifies VM IDs. Retired slots
// must form a suffix (and replaced slots must have been re-booted), so
// position-based pair identity survives the replay.
func compactSlots(slots []*core.VM, base *core.Allocation, messageBytes int64) (*core.Allocation, error) {
	out := &core.Allocation{MessageBytes: messageBytes}
	if base != nil {
		out.Fleet = base.Fleet
	}
	for i, vm := range slots {
		if vm == nil {
			for _, later := range slots[i:] {
				if later != nil {
					return nil, fmt.Errorf("%w: retired slot %d precedes a live slot (holes must be re-booted or trail the fleet)",
						ErrBadStep, i)
				}
			}
			break
		}
		vm.ID = i
		out.VMs = append(out.VMs, vm)
	}
	return out, nil
}

// StateFingerprint hashes a cluster state — the workload (rates and
// interest CSR) plus the allocation (per-VM instance, capacity, and
// placements) — into a short hex string. Plans record the fingerprint of
// the state they were computed against; Apply refuses with ErrStalePlan
// when the live state no longer matches. Accounting fields are derived and
// excluded. A nil workload or allocation hashes like an empty one, so the
// fingerprint of a never-deployed cluster is well defined.
//
// The hash is FNV-1a 64 over a stream of little-endian 64-bit words and
// instance names. Journals and plan files on disk carry fingerprints, so
// the stream must never change.
func StateFingerprint(w *workload.Workload, alloc *core.Allocation) string {
	h := fnv1a(14695981039346656037)
	h.words(0x6d637373) // domain tag
	if w != nil {
		h.words(int64(w.NumTopics()), int64(w.NumSubscribers()), w.NumPairs())
		h.words(w.Rates()...)
		for v := 0; v < w.NumSubscribers(); v++ {
			ts := w.Topics(workload.SubID(v))
			h.words(int64(len(ts)))
			for _, t := range ts {
				h.words(int64(t))
			}
		}
	} else {
		h.words(0, 0, 0)
	}
	if alloc != nil {
		h.words(int64(len(alloc.VMs)))
		var subs []workload.SubID
		for _, vm := range alloc.VMs {
			for _, c := range []byte(vm.Instance.Name) {
				h = (h ^ fnv1a(c)) * fnvPrime
			}
			h.words(int64(vm.Instance.HourlyRate), vm.Instance.LinkMbps, vm.CapacityBytesPerHour, int64(len(vm.Placements)))
			// Placement list order and subscriber order within a
			// placement are incidental (different packers and replayed
			// steps produce different orders for the same state), so the
			// hash canonicalizes both: topics ascending, subs ascending.
			for _, p := range byTopic(vm.Placements) {
				ps := p.Subs
				if !slices.IsSorted(ps) {
					subs = append(subs[:0], ps...)
					slices.Sort(subs)
					ps = subs
				}
				h.words(int64(p.Topic), int64(len(ps)))
				for _, s := range ps {
					h.words(int64(s))
				}
			}
		}
	} else {
		h.words(0)
	}
	return fmt.Sprintf("%016x", uint64(h))
}

// SameAllocation reports whether two allocations are equal in everything
// StateFingerprint hashes of an allocation: slot by slot, the instance
// name, hourly rate and link speed, the capacity, and the placements as a
// set of topics, each with its multiset of subscribers. Placement and
// subscriber order do not matter, as for the fingerprint, but nothing is
// hashed or sorted: placements are matched through a mark indexed by
// topic and subscriber lists compared through counts indexed by
// subscriber. A nil allocation equals an empty one.
func SameAllocation(a, b *core.Allocation) bool {
	va, vb := vmsOf(a), vmsOf(b)
	if len(va) != len(vb) {
		return false
	}
	var at []int32 // at[t]: 1 + index of y's placement of topic t
	var count []int32
	for i, x := range va {
		y := vb[i]
		if x.Instance.Name != y.Instance.Name || x.Instance.HourlyRate != y.Instance.HourlyRate ||
			x.Instance.LinkMbps != y.Instance.LinkMbps || x.CapacityBytesPerHour != y.CapacityBytesPerHour ||
			len(x.Placements) != len(y.Placements) {
			return false
		}
		same, dup := true, false
		for j, q := range y.Placements {
			at = growTo(at, int(q.Topic)+1)
			dup = dup || at[q.Topic] != 0
			at[q.Topic] = int32(j + 1)
		}
		for _, p := range x.Placements {
			if dup {
				break
			}
			if int(p.Topic) >= len(at) || at[p.Topic] <= 0 {
				same = false // y lacks the topic, or x places it twice
				break
			}
			q := y.Placements[at[p.Topic]-1]
			at[p.Topic] = -1
			if same = sameSubs(p.Subs, q.Subs, &count); !same {
				break
			}
		}
		for _, q := range y.Placements {
			at[q.Topic] = 0
		}
		if dup {
			// A topic twice on one VM: fall back to the fingerprint's
			// own canonical order for this slot.
			same = StateFingerprint(nil, &core.Allocation{VMs: []*core.VM{x}}) ==
				StateFingerprint(nil, &core.Allocation{VMs: []*core.VM{y}})
		}
		if !same {
			return false
		}
	}
	return true
}

// sameSubs reports whether p and q hold the same subscribers with the
// same multiplicities. count is zeroed scratch indexed by subscriber and
// is left zeroed.
func sameSubs(p, q []workload.SubID, count *[]int32) bool {
	if len(p) != len(q) {
		return false
	}
	if slices.Equal(p, q) {
		return true
	}
	c := *count
	for _, v := range q {
		c = growTo(c, int(v)+1)
		c[v]++
	}
	*count = c
	same := true
	for _, v := range p {
		if int(v) >= len(c) || c[v] == 0 {
			same = false
			break
		}
		c[v]--
	}
	for _, v := range q {
		c[v] = 0
	}
	return same
}

// fnv1a is an FNV-1a 64 state that folds bytes in directly, without
// hash.Hash64's per-call overhead.
type fnv1a uint64

const fnvPrime fnv1a = 1099511628211

// words folds each value in as 8 little-endian bytes.
func (h *fnv1a) words(vs ...int64) {
	x := *h
	for _, v := range vs {
		for i := 0; i < 64; i += 8 {
			x = (x ^ fnv1a(byte(v>>i))) * fnvPrime
		}
	}
	*h = x
}

// Restore rebuilds a Provisioner around an externally persisted state
// (workload + solve result) without re-solving — the entry point for
// applying a serialized plan to a cluster reloaded from disk. The result's
// selection should cover exactly the placed pairs (SelectionFromPairs of
// the allocation's placements) unless the caller has a better one.
func Restore(w *workload.Workload, res *core.Result, cfg core.Config) *Provisioner {
	return &Provisioner{cfg: cfg, w: w, res: res}
}
