// Package dynamic implements the on-line re-provisioning loop the MCSS
// paper sketches as future work (§VI): a Provisioner owns the current
// workload and allocation, absorbs workload deltas (rate changes, new
// topics, subscriptions and unsubscriptions), re-solves periodically, and
// reports migration churn; it can also repair an allocation after a broker
// VM failure without re-running pair selection.
package dynamic

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Delta describes a batch of workload changes to absorb before the next
// re-allocation.
type Delta struct {
	// NewTopics appends topics with the given event rates; they receive
	// IDs following the existing ones, in order.
	NewTopics []int64
	// NewSubscribers appends this many subscribers (initially without
	// subscriptions); they receive IDs following the existing ones.
	NewSubscribers int
	// RateChanges overrides topic event rates.
	RateChanges map[workload.TopicID]int64
	// Subscribe adds topic–subscriber pairs (may reference new IDs).
	Subscribe []workload.Pair
	// Unsubscribe removes pairs; absent (but in-range) pairs are ignored.
	Unsubscribe []workload.Pair
}

// Typed validation errors returned by Delta.Validate (and therefore by
// Provisioner.Update / Preview before any re-solve runs).
var (
	// ErrNegativeRate reports a non-positive event rate in NewTopics or
	// RateChanges (the paper's model requires ev_t > 0).
	ErrNegativeRate = errors.New("dynamic: event rate must be positive")
	// ErrDuplicatePair reports the same pair listed twice in Subscribe or
	// Unsubscribe, or listed in both at once.
	ErrDuplicatePair = errors.New("dynamic: duplicate pair in delta")
	// ErrUnknownReference reports a topic or subscriber ID outside the
	// workload, including IDs past the range the delta itself creates.
	ErrUnknownReference = errors.New("dynamic: reference outside the workload")
	// ErrBadDelta reports a structurally invalid delta (e.g. a negative
	// subscriber count).
	ErrBadDelta = errors.New("dynamic: invalid delta")
)

// Validate checks the delta against a workload with numTopics topics and
// numSubscribers subscribers: positive rates, no duplicate or conflicting
// subscribe/unsubscribe pairs, and every reference within the ID range
// after the delta's own additions. It returns the first violation, wrapping
// one of the typed errors above.
func (d Delta) Validate(numTopics, numSubscribers int) error {
	if numTopics < 0 || numSubscribers < 0 {
		return fmt.Errorf("%w: negative workload size %d/%d", ErrBadDelta, numTopics, numSubscribers)
	}
	if d.NewSubscribers < 0 {
		return fmt.Errorf("%w: NewSubscribers = %d", ErrBadDelta, d.NewSubscribers)
	}
	for i, r := range d.NewTopics {
		if r <= 0 {
			return fmt.Errorf("%w: new topic %d has rate %d", ErrNegativeRate, numTopics+i, r)
		}
	}
	numT := numTopics + len(d.NewTopics)
	numV := numSubscribers + d.NewSubscribers
	for t, r := range d.RateChanges {
		if int(t) < 0 || int(t) >= numT {
			return fmt.Errorf("%w: rate change for topic %d of %d", ErrUnknownReference, t, numT)
		}
		if r <= 0 {
			return fmt.Errorf("%w: rate change for topic %d to %d", ErrNegativeRate, t, r)
		}
	}
	checkPair := func(p workload.Pair, kind string) error {
		if int(p.Topic) < 0 || int(p.Topic) >= numT {
			return fmt.Errorf("%w: %s references topic %d of %d", ErrUnknownReference, kind, p.Topic, numT)
		}
		if int(p.Sub) < 0 || int(p.Sub) >= numV {
			return fmt.Errorf("%w: %s references subscriber %d of %d", ErrUnknownReference, kind, p.Sub, numV)
		}
		return nil
	}
	subs := make(map[workload.Pair]bool, len(d.Subscribe))
	for _, p := range d.Subscribe {
		if err := checkPair(p, "subscribe"); err != nil {
			return err
		}
		if subs[p] {
			return fmt.Errorf("%w: subscribe lists (t=%d, v=%d) twice", ErrDuplicatePair, p.Topic, p.Sub)
		}
		subs[p] = true
	}
	unsubs := make(map[workload.Pair]bool, len(d.Unsubscribe))
	for _, p := range d.Unsubscribe {
		if err := checkPair(p, "unsubscribe"); err != nil {
			return err
		}
		if unsubs[p] {
			return fmt.Errorf("%w: unsubscribe lists (t=%d, v=%d) twice", ErrDuplicatePair, p.Topic, p.Sub)
		}
		if subs[p] {
			return fmt.Errorf("%w: (t=%d, v=%d) both subscribed and unsubscribed", ErrDuplicatePair, p.Topic, p.Sub)
		}
		unsubs[p] = true
	}
	return nil
}

// DeltaBetween computes the Delta that transforms old into next, assuming
// the shared ID-stability convention: identifiers in next are a superset of
// old's (counts may only grow). The result round-trips — applying it to old
// reproduces next's rates and interest sets exactly — which is what lets an
// elastic controller drive a Provisioner from timeline snapshots.
func DeltaBetween(old, next *workload.Workload) (Delta, error) {
	if next.NumTopics() < old.NumTopics() || next.NumSubscribers() < old.NumSubscribers() {
		return Delta{}, fmt.Errorf("%w: next workload shrinks %d/%d → %d/%d (IDs must be stable)",
			ErrBadDelta, old.NumTopics(), old.NumSubscribers(), next.NumTopics(), next.NumSubscribers())
	}
	var d Delta
	for t := old.NumTopics(); t < next.NumTopics(); t++ {
		d.NewTopics = append(d.NewTopics, next.Rate(workload.TopicID(t)))
	}
	d.NewSubscribers = next.NumSubscribers() - old.NumSubscribers()
	for t := 0; t < old.NumTopics(); t++ {
		id := workload.TopicID(t)
		if old.Rate(id) != next.Rate(id) {
			if d.RateChanges == nil {
				d.RateChanges = make(map[workload.TopicID]int64)
			}
			d.RateChanges[id] = next.Rate(id)
		}
	}
	// Interest diffs by sorted merge (both CSRs keep interests ascending).
	for v := 0; v < next.NumSubscribers(); v++ {
		id := workload.SubID(v)
		var a []workload.TopicID // old interests (empty for new subscribers)
		if v < old.NumSubscribers() {
			a = old.Topics(id)
		}
		b := next.Topics(id)
		i, j := 0, 0
		for i < len(a) || j < len(b) {
			switch {
			case j >= len(b) || (i < len(a) && a[i] < b[j]):
				d.Unsubscribe = append(d.Unsubscribe, workload.Pair{Topic: a[i], Sub: id})
				i++
			case i >= len(a) || b[j] < a[i]:
				d.Subscribe = append(d.Subscribe, workload.Pair{Topic: b[j], Sub: id})
				j++
			default:
				i, j = i+1, j+1
			}
		}
	}
	return d, nil
}

// MigrationStats quantifies the churn of one re-allocation.
type MigrationStats struct {
	// PairsMoved counts selected pairs whose primary host VM changed
	// (including pairs newly selected or dropped by Stage 1).
	PairsMoved int64
	// PairsKept counts selected pairs still served by the same VM index.
	PairsKept int64
	// VMsBefore and VMsAfter are the fleet sizes around the event.
	VMsBefore, VMsAfter int
	// CostBefore and CostAfter evaluate the objective around the event.
	CostBefore, CostAfter pricing.MicroUSD

	// Incremental-path diagnostics, zero on the full-solve paths.
	//
	// PairsImproved counts pairs relocated by UpdateIncremental's bounded
	// local-improvement pass (a subset of PairsMoved). RegretFrac and
	// BaseRegretFrac are the measured cost regret versus the maintained
	// lower bound after this update and at the last full solve; Fallback
	// reports that the incremental candidate was discarded for a full
	// re-solve because the drift between them exceeded the policy
	// threshold.
	PairsImproved              int64
	RegretFrac, BaseRegretFrac float64
	Fallback                   bool

	// Epoch carries the incremental engine's per-pass telemetry for the
	// update that produced these stats (zero value on full-solve paths) —
	// eviction/top-up/improve/drain counts, budget spent, and VMs
	// released, consumed by the observability layer. Its Result pointer is
	// always nil here; the adopted result travels separately.
	Epoch core.EpochOutcome
}

// RepairStats quantifies a crash repair.
type RepairStats struct {
	// PairsRehomed counts pairs that lived on the failed VM.
	PairsRehomed int64
	// NewVMs counts VMs deployed by the repair.
	NewVMs int
	// VMsAfter is the fleet size after repair.
	VMsAfter int
}

// Provisioner owns a workload and keeps an allocation current across
// deltas and failures. It is not safe for concurrent use.
type Provisioner struct {
	cfg core.Config
	w   *workload.Workload
	res *core.Result

	// inc is the persistent incremental index over res.Allocation, built
	// lazily by the first PreviewIncremental/UpdateIncremental and kept
	// while the adopted allocation is the one it mirrors (see
	// ensureIndex); incPol tunes the incremental path.
	inc    *core.IncrementalState
	incPol IncrementalPolicy
}

// New solves the initial allocation.
func New(w *workload.Workload, cfg core.Config) (*Provisioner, error) {
	return NewContext(context.Background(), w, cfg)
}

// NewContext solves the initial allocation under a context: the solve
// honors cancellation and cfg.Observer progress callbacks.
func NewContext(ctx context.Context, w *workload.Workload, cfg core.Config) (*Provisioner, error) {
	res, err := core.SolveContext(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	return &Provisioner{cfg: cfg, w: w, res: res}, nil
}

// Workload returns the current workload.
func (p *Provisioner) Workload() *workload.Workload { return p.w }

// Allocation returns the current allocation.
func (p *Provisioner) Allocation() *core.Allocation { return p.res.Allocation }

// Selection returns the current Stage-1 selection.
func (p *Provisioner) Selection() *core.Selection { return p.res.Selection }

// Cost evaluates the current allocation under the provisioner's model.
func (p *Provisioner) Cost() pricing.MicroUSD { return p.res.Cost(p.cfg.Model) }

// Update applies the delta, re-solves from scratch (the paper's suggested
// periodic re-allocation), adopts the result, and reports migration churn
// relative to the previous allocation.
func (p *Provisioner) Update(d Delta) (MigrationStats, error) {
	return p.UpdateContext(context.Background(), d)
}

// UpdateContext is Update under a context; on cancellation the provisioner
// state is left untouched.
func (p *Provisioner) UpdateContext(ctx context.Context, d Delta) (MigrationStats, error) {
	next, res, stats, err := p.PreviewContext(ctx, d)
	if err != nil {
		return MigrationStats{}, err
	}
	p.Adopt(next, res)
	return stats, nil
}

// Preview applies the delta and re-solves without adopting: the provisioner
// keeps its current workload and allocation so a controller can weigh the
// candidate (cost, churn) against a hysteresis policy first. Install the
// candidate with Adopt, or discard it by adopting something else.
func (p *Provisioner) Preview(d Delta) (*workload.Workload, *core.Result, MigrationStats, error) {
	return p.PreviewContext(context.Background(), d)
}

// PreviewContext is Preview under a context: the embedded re-solve polls
// cancellation at bounded intervals and reports progress to the config's
// Observer.
func (p *Provisioner) PreviewContext(ctx context.Context, d Delta) (*workload.Workload, *core.Result, MigrationStats, error) {
	next, err := ApplyDelta(p.w, d)
	if err != nil {
		return nil, nil, MigrationStats{}, err
	}
	res, err := core.SolveContext(ctx, next, p.cfg)
	if err != nil {
		return nil, nil, MigrationStats{}, err
	}
	stats := MigrationStatsBetween(p.res.Allocation, res.Allocation, p.cfg.Model)
	return next, res, stats, nil
}

// Adopt installs a previewed (or externally constructed) workload and
// solve result as the provisioner's current state.
func (p *Provisioner) Adopt(w *workload.Workload, res *core.Result) {
	p.w = w
	p.res = res
}

// ErrUnknownVM reports a repair target outside the fleet.
var ErrUnknownVM = errors.New("dynamic: unknown VM")

// RepairCrash removes the given VM from the allocation and re-homes its
// placements onto surviving VMs (most-free-first, respecting each VM's own
// capacity) or fresh VMs of the crashed VM's instance type, without
// re-running Stage 1. VM IDs are re-densified.
func (p *Provisioner) RepairCrash(vmID int) (RepairStats, error) {
	return p.RepairCrashContext(context.Background(), vmID)
}

// RepairCrashContext is RepairCrash under a context: cancellation is
// checked per re-homed topic group, and on cancellation (or any failure)
// the provisioner keeps its pre-repair workload and allocation untouched —
// the repair builds a private copy of the surviving fleet and installs it
// only once every pair is re-homed.
func (p *Provisioner) RepairCrashContext(ctx context.Context, vmID int) (RepairStats, error) {
	return p.RepairCrashGroupContext(ctx, []int{vmID})
}

// RepairCrashGroup is RepairCrashGroupContext under context.Background().
func (p *Provisioner) RepairCrashGroup(vmIDs []int) (RepairStats, error) {
	return p.RepairCrashGroupContext(context.Background(), vmIDs)
}

// RepairCrashGroupContext repairs a correlated failure: every listed VM is
// removed first, then the union of their placements is re-homed onto the
// remaining survivors or fresh like-for-like VMs. Removing the whole group
// before re-homing is what makes correlated failures safe — when an
// availability zone takes out every replica of a topic at once, none of
// the failed copies can masquerade as a survivor, so the repair re-places
// all of them instead of silently dropping pairs. Duplicate IDs are
// rejected; an unknown ID fails the whole repair with ErrUnknownVM and the
// allocation stays untouched, as on any mid-repair failure.
func (p *Provisioner) RepairCrashGroupContext(ctx context.Context, vmIDs []int) (RepairStats, error) {
	if err := ctx.Err(); err != nil {
		return RepairStats{}, err
	}
	if len(vmIDs) == 0 {
		return RepairStats{VMsAfter: p.res.Allocation.NumVMs()}, nil
	}
	alloc := p.res.Allocation
	failedSet := make(map[int]bool, len(vmIDs))
	for _, id := range vmIDs {
		if failedSet[id] {
			return RepairStats{}, fmt.Errorf("%w: VM %d listed twice in failure group", ErrBadDelta, id)
		}
		failedSet[id] = true
	}
	var failed []*core.VM
	survivors := make([]*core.VM, 0, len(alloc.VMs)-len(vmIDs))
	for _, vm := range alloc.VMs {
		if failedSet[vm.ID] {
			failed = append(failed, vm)
			continue
		}
		// Deep-copy the survivors: re-homing mutates placements, and a
		// repair abandoned mid-way (cancellation, infeasibility) must not
		// leave the current allocation half-rewritten.
		survivors = append(survivors, cloneVM(vm))
	}
	if len(failed) != len(vmIDs) {
		for _, id := range vmIDs {
			found := false
			for _, vm := range failed {
				if vm.ID == id {
					found = true
					break
				}
			}
			if !found {
				return RepairStats{}, fmt.Errorf("%w: %d", ErrUnknownVM, id)
			}
		}
	}

	msg := alloc.MessageBytes
	stats := RepairStats{}

	// Re-home the union of the group's placements, biggest volume first
	// (the CBP heuristic). Each orphan remembers its origin VM so a
	// replacement deploy stays like-for-like per failed broker.
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
		wi := p.w.Rate(groups[i].Topic) * int64(len(groups[i].Subs))
		wj := p.w.Rate(groups[j].Topic) * int64(len(groups[j].Subs))
		if wi != wj {
			return wi > wj
		}
		return groups[i].Topic < groups[j].Topic
	})
	var newVMs []*core.VM
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return RepairStats{}, err
		}
		stats.PairsRehomed += int64(len(g.Subs))
		remaining := g.Subs
		rb := p.w.Rate(g.Topic) * msg
		for len(remaining) > 0 {
			vm, hasTopic := mostFreeFit(survivors, newVMs, g.Topic, rb)
			if vm == nil {
				// Replace capacity like-for-like: the crash repair
				// deploys the failed broker's own instance type.
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
				// Even a fresh VM cannot host a pair.
				return RepairStats{}, fmt.Errorf("%w: topic %d needs %d bytes/h for one pair, a fresh %s carries %d",
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
	p.res = &core.Result{
		Selection:  p.res.Selection,
		Allocation: repaired,
		Stage1Time: p.res.Stage1Time,
		Stage2Time: p.res.Stage2Time,
	}
	// The repaired allocation no longer matches the incremental index's
	// mirror (ensureIndex would notice on its own); drop the index eagerly
	// so its memory goes with the old allocation.
	p.inc = nil
	return stats, nil
}

// SetFleet repoints the provisioner's solve configuration at a new fleet —
// the price-epoch hook: when spot prices move, the elastic controller
// swaps in the repriced decision fleet so every subsequent preview and
// solve packs against current rates. The incremental index is dropped
// (its maintained cost bounds were computed under the old rates); the
// current allocation is left as adopted.
func (p *Provisioner) SetFleet(f pricing.Fleet) {
	p.cfg.Fleet = f
	p.inc = nil
}

// cloneVM deep-copies a VM (placements included) so repairs can mutate a
// private working fleet.
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

// migrationBetween diffs primary pair hosts by VM position between two
// allocations, counting pairs kept on the same VM index versus moved
// (including pairs newly selected or dropped). A pair placed on several
// VMs is hosted by the first of them; a nil allocation counts as empty.
// Cost and VM-count fields of the result are left zero;
// MigrationStatsBetween fills them. Both allocations are grouped into
// per-subscriber rows, which are merged subscriber by subscriber.
func migrationBetween(before, after *core.Allocation) MigrationStats {
	numV := int(max(maxSub(before), maxSub(after))) + 1
	offB, rowsB := pairRows(before, numV)
	offA, rowsA := pairRows(after, numV)
	var stats MigrationStats
	for v := 0; v < numV; v++ {
		b, a := rowsB[offB[v]:offB[v+1]], rowsA[offA[v]:offA[v+1]]
		for len(b) > 0 || len(a) > 0 {
			switch {
			case len(a) == 0 || len(b) > 0 && b[0]>>32 < a[0]>>32:
				stats.PairsMoved++ // dropped
				b = skipTopic(b)
			case len(b) == 0 || a[0]>>32 < b[0]>>32:
				stats.PairsMoved++ // newly placed
				a = skipTopic(a)
			default:
				if a[0] == b[0] {
					stats.PairsKept++
				} else {
					stats.PairsMoved++
				}
				a, b = skipTopic(a), skipTopic(b)
			}
		}
	}
	return stats
}

// pairRows groups an allocation's placed pairs by subscriber with a
// counting pass, the shape of the incremental index's per-subscriber
// rows: row v is rows[off[v]:off[v+1]], one key per placement of a pair
// of v, packing the topic above the VM index. The fill visits placements
// in (topic, VM index) order, so every row comes out sorted without
// sorting it: topic-ascending, a pair placed more than once leading with
// its lowest VM index. numV must exceed every subscriber ID.
func pairRows(a *core.Allocation, numV int) (off []int, rows []uint64) {
	type placed struct {
		key  uint64
		subs []workload.SubID
	}
	var ps []placed
	off = make([]int, numV+1)
	for i, vm := range vmsOf(a) {
		for _, p := range vm.Placements {
			ps = append(ps, placed{uint64(uint32(p.Topic))<<32 | uint64(i), p.Subs})
			for _, v := range p.Subs {
				off[v+1]++
			}
		}
	}
	slices.SortFunc(ps, func(x, y placed) int { return cmp.Compare(x.key, y.key) })
	for v := 0; v < numV; v++ {
		off[v+1] += off[v]
	}
	rows = make([]uint64, off[numV])
	next := slices.Clone(off[:numV])
	for _, p := range ps {
		for _, v := range p.subs {
			rows[next[v]] = p.key
			next[v]++
		}
	}
	return off, rows
}

// skipTopic drops the keys of row's first topic.
func skipTopic(row []uint64) []uint64 {
	t := row[0] >> 32
	for len(row) > 0 && row[0]>>32 == t {
		row = row[1:]
	}
	return row
}

// maxSub returns the largest subscriber ID an allocation places, or -1.
func maxSub(a *core.Allocation) workload.SubID {
	m := workload.SubID(-1)
	for _, vm := range vmsOf(a) {
		for _, p := range vm.Placements {
			for _, v := range p.Subs {
				m = max(m, v)
			}
		}
	}
	return m
}

func vmsOf(a *core.Allocation) []*core.VM {
	if a == nil {
		return nil
	}
	return a.VMs
}

// ApplyDelta materializes a new workload with the delta applied (after
// validating it). Topics orphaned by unsubscriptions are retained (IDs stay
// stable); subscribers may end up with empty interests, which the solver
// treats as trivially satisfied. Topic and subscriber names are dropped;
// region tags carry over, and new topics and subscribers get the home
// region 0.
//
// The new workload is built by patching the CSR arrays directly — a sorted
// three-way merge per edited subscriber — so the epoch's workload swap
// costs O(pairs) array copies plus O(delta log delta), keeping the
// incremental path's constant factor low.
func ApplyDelta(w *workload.Workload, d Delta) (*workload.Workload, error) {
	if err := d.Validate(w.NumTopics(), w.NumSubscribers()); err != nil {
		return nil, err
	}
	numT := w.NumTopics() + len(d.NewTopics)
	numV := w.NumSubscribers() + d.NewSubscribers

	rates := make([]int64, numT)
	copy(rates, w.Rates())
	copy(rates[w.NumTopics():], d.NewTopics)
	for t, r := range d.RateChanges {
		rates[t] = r
	}

	// Group the pair edits per subscriber (delta-sized, not fleet-sized).
	type rowEdit struct{ add, del []workload.TopicID }
	edits := make(map[workload.SubID]*rowEdit, len(d.Subscribe)+len(d.Unsubscribe))
	edit := func(v workload.SubID) *rowEdit {
		e := edits[v]
		if e == nil {
			e = &rowEdit{}
			edits[v] = e
		}
		return e
	}
	for _, pr := range d.Subscribe {
		e := edit(pr.Sub)
		e.add = append(e.add, pr.Topic)
	}
	for _, pr := range d.Unsubscribe {
		e := edit(pr.Sub)
		e.del = append(e.del, pr.Topic)
	}
	for _, e := range edits {
		slices.Sort(e.add)
		slices.Sort(e.del)
	}

	subOff := make([]int64, 1, numV+1)
	subTopics := make([]workload.TopicID, 0, w.NumPairs()+int64(len(d.Subscribe)))
	for v := 0; v < numV; v++ {
		var old []workload.TopicID
		if v < w.NumSubscribers() {
			old = w.Topics(workload.SubID(v))
		}
		if e := edits[workload.SubID(v)]; e == nil {
			subTopics = append(subTopics, old...)
		} else {
			subTopics = mergeRow(subTopics, old, e.add, e.del)
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	out, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		return nil, err
	}
	return out.WithRegionsOf(w)
}

// mergeRow appends (old ∪ add) \ del to dst, deduplicated ascending. All
// three inputs are sorted ascending; add and del never share a topic
// (Delta.Validate rejects that).
func mergeRow(dst, old, add, del []workload.TopicID) []workload.TopicID {
	start := len(dst)
	i, j := 0, 0
	emit := func(t workload.TopicID) {
		if _, dead := slices.BinarySearch(del, t); dead {
			return
		}
		if n := len(dst); n > start && dst[n-1] == t {
			return // duplicate (re-subscribe of an existing interest)
		}
		dst = append(dst, t)
	}
	for i < len(old) || j < len(add) {
		switch {
		case j >= len(add) || (i < len(old) && old[i] <= add[j]):
			emit(old[i])
			i++
		default:
			emit(add[j])
			j++
		}
	}
	return dst
}
