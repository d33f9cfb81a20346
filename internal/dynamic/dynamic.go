// Package dynamic implements the on-line re-provisioning loop the MCSS
// paper sketches as future work (§VI): a Provisioner owns the current
// workload and allocation, absorbs workload deltas (rate changes, new
// topics, subscriptions and unsubscriptions), re-solves periodically, and
// reports migration churn; it can also repair an allocation after a broker
// VM failure without re-running pair selection.
package dynamic

import (
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
	_, err := d.validate(numTopics, numSubscribers)
	return err
}

// validate is Validate returning the delta's pair edits grouped by
// subscriber (see rowEdits), which the duplicate check sorts them into.
func (d Delta) validate(numTopics, numSubscribers int) ([]rowEdit, error) {
	if numTopics < 0 || numSubscribers < 0 {
		return nil, fmt.Errorf("%w: negative workload size %d/%d", ErrBadDelta, numTopics, numSubscribers)
	}
	if d.NewSubscribers < 0 {
		return nil, fmt.Errorf("%w: NewSubscribers = %d", ErrBadDelta, d.NewSubscribers)
	}
	for i, r := range d.NewTopics {
		if r <= 0 {
			return nil, fmt.Errorf("%w: new topic %d has rate %d", ErrNegativeRate, numTopics+i, r)
		}
	}
	numT := numTopics + len(d.NewTopics)
	numV := numSubscribers + d.NewSubscribers
	for t, r := range d.RateChanges {
		if int(t) < 0 || int(t) >= numT {
			return nil, fmt.Errorf("%w: rate change for topic %d of %d", ErrUnknownReference, t, numT)
		}
		if r <= 0 {
			return nil, fmt.Errorf("%w: rate change for topic %d to %d", ErrNegativeRate, t, r)
		}
	}
	checkPairs := func(ps []workload.Pair, kind string) error {
		for _, p := range ps {
			if int(p.Topic) < 0 || int(p.Topic) >= numT {
				return fmt.Errorf("%w: %s references topic %d of %d", ErrUnknownReference, kind, p.Topic, numT)
			}
			if int(p.Sub) < 0 || int(p.Sub) >= numV {
				return fmt.Errorf("%w: %s references subscriber %d of %d", ErrUnknownReference, kind, p.Sub, numV)
			}
		}
		return nil
	}
	if err := checkPairs(d.Subscribe, "subscribe"); err != nil {
		return nil, err
	}
	if err := checkPairs(d.Unsubscribe, "unsubscribe"); err != nil {
		return nil, err
	}
	return rowEdits(d)
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

	// fp is the StateFingerprint AdoptFingerprinted installed with the
	// state, valid while the provisioner holds exactly the workload and
	// allocation it was given for (fpW, fpAlloc).
	fp      string
	fpW     *workload.Workload
	fpAlloc *core.Allocation

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
// solve result as the provisioner's current state. Adopted allocations
// are immutable: a change of any kind, a reprice included, is a new
// allocation adopted in its place.
func (p *Provisioner) Adopt(w *workload.Workload, res *core.Result) {
	p.w = w
	p.res = res
	p.fp = ""
}

// AdoptFingerprinted is Adopt for a state whose StateFingerprint the
// caller has verified to be fp. The provisioner remembers fp while it
// holds exactly this workload and allocation, so KnownFingerprint answers
// without hashing the cluster; any later Adopt or repair installs other
// pointers and so drops it.
func (p *Provisioner) AdoptFingerprinted(w *workload.Workload, res *core.Result, fp string) {
	p.Adopt(w, res)
	p.fp, p.fpW, p.fpAlloc = fp, w, res.Allocation
}

// KnownFingerprint returns the fingerprint AdoptFingerprinted installed,
// when the provisioner still holds the state it was installed with.
func (p *Provisioner) KnownFingerprint() (string, bool) {
	if p.fp == "" || p.w != p.fpW || p.res.Allocation != p.fpAlloc {
		return "", false
	}
	return p.fp, true
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
	for _, vm := range alloc.VMs {
		if failedSet[vm.ID] {
			failed = append(failed, vm)
		}
	}
	if len(failed) != len(vmIDs) {
		for _, id := range vmIDs {
			if !slices.ContainsFunc(failed, func(vm *core.VM) bool { return vm.ID == id }) {
				return RepairStats{}, fmt.Errorf("%w: %d", ErrUnknownVM, id)
			}
		}
	}

	// Re-home onto deep copies of the survivors, renumbered densely: a
	// repair abandoned mid-way (cancellation, infeasibility) must not leave
	// the current allocation half-rewritten.
	msg := alloc.MessageBytes
	repaired := &core.Allocation{
		VMs:          make([]*core.VM, 0, len(alloc.VMs)-len(failed)),
		Fleet:        alloc.Fleet,
		MessageBytes: msg,
	}
	for _, vm := range alloc.VMs {
		if !failedSet[vm.ID] {
			repaired.VMs = append(repaired.VMs, core.SnapshotVM(vm, len(repaired.VMs)))
		}
	}
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
	rh := core.NewRehomer(repaired, alloc.Fleet)
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return RepairStats{}, err
		}
		stats.PairsRehomed += int64(len(g.Subs))
		n, err := rh.RehomeGroup(g.Topic, p.w.Rate(g.Topic)*msg, g.Subs, g.origin.Instance, g.origin.CapacityBytesPerHour)
		if err != nil {
			return RepairStats{}, err
		}
		stats.NewVMs += n
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

// migrationBetween diffs primary pair hosts by VM position between two
// allocations, counting pairs kept on the same VM index versus moved
// (including pairs newly selected or dropped). A pair placed on several
// VMs is hosted by the first of them; a nil allocation counts as empty.
// Cost and VM-count fields of the result are left zero;
// MigrationStatsBetween fills them. Both allocations' pair rows
// (core.Allocation.PairRows), sized from the largest topic and subscriber
// IDs in either, are merged subscriber by subscriber.
func migrationBetween(before, after *core.Allocation) MigrationStats {
	numT, numV := idBounds(before, after)
	rowsB, rowsA := before.PairRows(numT, numV), after.PairRows(numT, numV)
	var stats MigrationStats
	for v := range numV {
		b, a := rowsB.Row(workload.SubID(v)), rowsA.Row(workload.SubID(v))
		for i, j := 0, 0; i < len(b) || j < len(a); {
			// A topic's first entry names its lowest slot; skip the rest.
			switch {
			case i > 0 && i < len(b) && b[i].Topic == b[i-1].Topic:
				i++
			case j > 0 && j < len(a) && a[j].Topic == a[j-1].Topic:
				j++
			case j == len(a) || i < len(b) && b[i].Topic < a[j].Topic:
				stats.PairsMoved++ // dropped
				i++
			case i == len(b) || a[j].Topic < b[i].Topic:
				stats.PairsMoved++ // newly placed
				j++
			default:
				if b[i].Slot == a[j].Slot {
					stats.PairsKept++
				} else {
					stats.PairsMoved++
				}
				i, j = i+1, j+1
			}
		}
	}
	return stats
}

// idBounds returns one past the largest topic and subscriber IDs the
// allocations place, or zeros when they place nothing.
func idBounds(as ...*core.Allocation) (numT, numV int) {
	for _, a := range as {
		for _, vm := range vmsOf(a) {
			for _, p := range vm.Placements {
				numT = max(numT, int(p.Topic)+1)
				for _, v := range p.Subs {
					numV = max(numV, int(v)+1)
				}
			}
		}
	}
	return numT, numV
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
	edits, err := d.validate(w.NumTopics(), w.NumSubscribers())
	if err != nil {
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

	subOff := make([]int64, 1, numV+1)
	subTopics := make([]workload.TopicID, 0, w.NumPairs()+int64(len(d.Subscribe)))
	for v := 0; v < numV; v++ {
		var old []workload.TopicID
		if v < w.NumSubscribers() {
			old = w.Topics(workload.SubID(v))
		}
		if len(edits) > 0 && edits[0].sub == workload.SubID(v) {
			subTopics = mergeRow(subTopics, old, edits[0].add, edits[0].del)
			edits = edits[1:]
		} else {
			subTopics = append(subTopics, old...)
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	out, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		return nil, err
	}
	return out.WithRegionsOf(w)
}

// CheckDelta reports an error unless ApplyDelta(old, d) reproduces next's
// rates and interest sets (region tags are not compared) — what lets a
// journal record a plan's diff in place of its target workload. It
// compares next with the merged rows one subscriber at a time, without
// building the workload.
func CheckDelta(old, next *workload.Workload, d Delta) error {
	edits, err := d.validate(old.NumTopics(), old.NumSubscribers())
	if err != nil {
		return err
	}
	numT := old.NumTopics() + len(d.NewTopics)
	numV := old.NumSubscribers() + d.NewSubscribers
	if next.NumTopics() != numT || next.NumSubscribers() != numV {
		return fmt.Errorf("%w: delta yields %d topics and %d subscribers, the workload has %d and %d",
			ErrBadDelta, numT, numV, next.NumTopics(), next.NumSubscribers())
	}
	for t, r := range d.RateChanges {
		if next.Rate(t) != r {
			return fmt.Errorf("%w: delta rates topic %d at %d, the workload at %d", ErrBadDelta, t, r, next.Rate(t))
		}
	}
	for t := 0; t < numT; t++ {
		r := int64(0)
		if t < old.NumTopics() {
			r = old.Rate(workload.TopicID(t))
		} else {
			r = d.NewTopics[t-old.NumTopics()]
		}
		if r == next.Rate(workload.TopicID(t)) {
			continue
		}
		if _, ok := d.RateChanges[workload.TopicID(t)]; !ok {
			return fmt.Errorf("%w: delta keeps topic %d at rate %d, the workload has %d",
				ErrBadDelta, t, r, next.Rate(workload.TopicID(t)))
		}
	}
	var merged []workload.TopicID
	for v := 0; v < numV; v++ {
		var row []workload.TopicID
		if v < old.NumSubscribers() {
			row = old.Topics(workload.SubID(v))
		}
		if len(edits) > 0 && edits[0].sub == workload.SubID(v) {
			merged = mergeRow(merged[:0], row, edits[0].add, edits[0].del)
			row = merged
			edits = edits[1:]
		}
		if !slices.Equal(row, next.Topics(workload.SubID(v))) {
			return fmt.Errorf("%w: delta leaves subscriber %d with topics %v, the workload has %v",
				ErrBadDelta, v, row, next.Topics(workload.SubID(v)))
		}
	}
	return nil
}

// rowEdit is one subscriber's pair edits in a delta.
type rowEdit struct {
	sub      workload.SubID
	add, del []workload.TopicID
}

// rowEdits groups a delta's subscribe and unsubscribe pairs by subscriber
// (delta-sized, not fleet-sized): subscribers ascending, each list of
// topics ascending. Both lists become subscriber-major keys, sorted only
// when out of order (DeltaBetween's are not), and are merged, so a pair
// listed twice, or in both lists, meets its copy and is reported as
// ErrDuplicatePair. The pairs' IDs must be in range (non-negative).
func rowEdits(d Delta) ([]rowEdit, error) {
	subs, unsubs := pairKeys(d.Subscribe), pairKeys(d.Unsubscribe)
	// Rows are filled one after another, so each row's lists are
	// consecutive windows of two buffers sized for every pair up front,
	// and the rows one array sized for the distinct subscribers.
	addBuf := make([]workload.TopicID, 0, len(subs))
	delBuf := make([]workload.TopicID, 0, len(unsubs))
	rows := make([]rowEdit, 0, countSubs(subs, unsubs))
	add := func(k uint64, sub bool) {
		v, t := workload.SubID(k>>32), workload.TopicID(uint32(k))
		if n := len(rows); n == 0 || rows[n-1].sub != v {
			rows = append(rows, rowEdit{sub: v, add: addBuf[len(addBuf):], del: delBuf[len(delBuf):]})
		}
		r := &rows[len(rows)-1]
		if sub {
			addBuf = append(addBuf, t)
			r.add = r.add[:len(r.add)+1]
		} else {
			delBuf = append(delBuf, t)
			r.del = r.del[:len(r.del)+1]
		}
	}
	for i, j := 0, 0; i < len(subs) || j < len(unsubs); {
		switch {
		case j == len(unsubs) || i < len(subs) && subs[i] < unsubs[j]:
			if i > 0 && subs[i] == subs[i-1] {
				return nil, fmt.Errorf("%w: subscribe lists (t=%d, v=%d) twice", ErrDuplicatePair, uint32(subs[i]), subs[i]>>32)
			}
			add(subs[i], true)
			i++
		case i == len(subs) || unsubs[j] < subs[i]:
			if j > 0 && unsubs[j] == unsubs[j-1] {
				return nil, fmt.Errorf("%w: unsubscribe lists (t=%d, v=%d) twice", ErrDuplicatePair, uint32(unsubs[j]), unsubs[j]>>32)
			}
			add(unsubs[j], false)
			j++
		default:
			return nil, fmt.Errorf("%w: (t=%d, v=%d) both subscribed and unsubscribed", ErrDuplicatePair, uint32(subs[i]), subs[i]>>32)
		}
	}
	return rows, nil
}

// countSubs counts the distinct subscribers of two ascending lists of
// subscriber-major keys.
func countSubs(a, b []uint64) int {
	n, last := 0, uint64(0)
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var v uint64
		if j == len(b) || i < len(a) && a[i] < b[j] {
			v, i = a[i]>>32, i+1
		} else {
			v, j = b[j]>>32, j+1
		}
		if n == 0 || v != last {
			n, last = n+1, v
		}
	}
	return n
}

// pairKeys packs pairs into subscriber-major keys, ascending.
func pairKeys(ps []workload.Pair) []uint64 {
	keys := make([]uint64, len(ps))
	for i, p := range ps {
		keys[i] = uint64(p.Sub)<<32 | uint64(p.Topic)
	}
	if !slices.IsSorted(keys) {
		slices.Sort(keys)
	}
	return keys
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
