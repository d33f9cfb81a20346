package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// This file holds the online placement code, which edits the slot table
// (vmindex.go) of a live allocation. Two layers:
//
//   - Rehomer: a slot table over a fleet of VMs holding the system's one
//     copy of each online placement rule: PlacePair (host with room →
//     most-free VM → deploy the cheapest fitting type), the
//     minimal-overshoot TopUp built on it, and the crash repair's
//     RehomeGroup. The incremental engine and elastic.keepWithTopUp top
//     up through it; dynamic's crash repair re-homes through it.
//
//   - IncrementalState (built by Allocation.Index): Rehomer plus the full
//     pair-level bookkeeping — per-subscriber selected-topic rows with the
//     hosting slot of every pair, delivered rates, and the incrementally
//     maintained lower bound — enough to absorb a workload delta in time
//     proportional to the delta, not the fleet.

// Rehomer places pairs on an allocation's VMs in time proportional to the
// placement, through the slot table's max-free tree and exact per-topic
// host lists. Frees move in both directions under removals, so no query
// here drops a host from its list: every query sees the true current
// state.
//
// NewRehomer shares the allocation's VM pointers: placements mutate the
// allocation in place and deployed VMs are appended to it. The zero value
// is not usable.
type Rehomer struct {
	slotTable
	fleet pricing.Fleet
	msg   int64              // bytes per message: a pair of topic t carries ev_t·msg
	cands []rateTopic        // TopUp scratch
	picks []workload.TopicID // TopUp scratch
}

// NewRehomer indexes alloc's VMs against the given deployable fleet. The
// returned Rehomer shares alloc's VM pointers: every placement mutates the
// allocation in place, and freshly deployed VMs are appended to alloc.VMs.
func NewRehomer(alloc *Allocation, fleet pricing.Fleet) *Rehomer {
	return &Rehomer{slotTable: newSlotTable(alloc, 0), fleet: fleet, msg: alloc.MessageBytes}
}

// newRehomer indexes a private slot table over vms.
func newRehomer(vms []*VM, fleet pricing.Fleet, msg int64) *Rehomer {
	return NewRehomer(&Allocation{VMs: vms, Fleet: fleet, MessageBytes: msg}, fleet)
}

// VMs returns the current slot table, including VMs deployed by PlacePair.
// The slice and its VMs are live state and must not be modified directly.
func (r *Rehomer) VMs() []*VM { return r.alloc.VMs }

// PlacePair homes one pair of topic t (rb = ev_t·MessageBytes): a VM
// already hosting the topic with room for one more egress stream (most
// free first), else the most-free VM with room for ingress plus egress,
// else a fresh VM of the cheapest type that fits the topic at all. It
// reports the chosen slot, or ok=false when no deployed VM has room and
// no fleet type can host the topic — the caller's scale-up/infeasibility
// signal (there is deliberately no lenient fallback here).
func (r *Rehomer) PlacePair(t workload.TopicID, v workload.SubID, rb int64) (int32, bool) {
	if s, ok := r.placeNoDeploy(t, v, rb); ok {
		return s, true
	}
	ti := pickFittingType(r.fleet, 2*rb)
	if ti < 0 {
		return -1, false
	}
	s := r.deploy(r.fleet.Type(ti), r.fleet.Capacity(ti))
	r.place(s, t, rb, []workload.SubID{v})
	return s, true
}

// placeNoDeploy is PlacePair restricted to already-deployed VMs: a host of
// t with room, else the most-free VM with room for ingress plus egress —
// never a fresh deployment. The drain pass places through it so
// consolidation cannot grow the fleet it is shrinking.
func (r *Rehomer) placeNoDeploy(t workload.TopicID, v workload.SubID, rb int64) (int32, bool) {
	s := r.freestHost(t, rb)
	if s < 0 {
		if f, i := r.tree.maxFree(); i >= 0 && f >= 2*rb {
			s = int32(i)
		}
	}
	if s < 0 {
		return -1, false
	}
	r.place(s, t, rb, []workload.SubID{v})
	return s, true
}

// TopUp raises subscriber v's delivered rate by at least need events/h.
// It selects v's interests missing from selected (v's selected topics,
// ascending; read before the first placement), minimal-overshoot first —
// the largest rate ≤ the remaining need (the highest topic of that rate),
// else the smallest rate (the lowest topic), which closes the gap with the
// least excess: the Stage-1 greedy's rule, through the same
// pickMinOvershoot — and homes each pair through PlacePair, reporting it
// to placed with its slot. It fails when v's interests run out below the
// need, and wraps ErrInfeasible when a topic fits no fleet type.
func (r *Rehomer) TopUp(w *workload.Workload, v workload.SubID, selected []workload.TopicID, need int64, placed func(t workload.TopicID, slot int32)) error {
	cands := r.cands[:0]
	i := 0
	for _, t := range w.Topics(v) {
		for i < len(selected) && selected[i] < t {
			i++
		}
		if i < len(selected) && selected[i] == t {
			continue
		}
		cands = append(cands, rateTopic{rate: w.Rate(t), topic: t})
	}
	r.cands = cands // keep the grown buffers for the next subscriber
	r.picks, need = pickMinOvershoot(r.picks[:0], cands, need, false)
	for _, t := range r.picks {
		slot, ok := r.PlacePair(t, v, w.Rate(t)*r.msg)
		if !ok {
			return fmt.Errorf("%w: topic %d does not fit any fleet type", ErrInfeasible, t)
		}
		placed(t, slot)
	}
	if need > 0 {
		return fmt.Errorf("core: subscriber %d below τ_v with no interests left", v)
	}
	return nil
}

// RehomeGroup homes subs, subscribers of topic t (rb = ev_t·MessageBytes),
// by the crash repair's rule: the most-free VM that still fits one pair —
// rb on a host of t, 2·rb anywhere else; the lowest slot on ties — takes
// as many of them as fit, and the rest go round again. When no VM fits, a
// fresh VM of type it with the given capacity is deployed: the repair
// replaces a failed broker like for like. It reports the VMs deployed, and
// wraps ErrInfeasible when a fresh VM cannot carry one pair.
func (r *Rehomer) RehomeGroup(t workload.TopicID, rb int64, subs []workload.SubID, it pricing.InstanceType, capacity int64) (int, error) {
	deployed := 0
	for len(subs) > 0 {
		// The most-free VM fits a pair wherever it fits 2·rb; below that
		// only a host of t can.
		var s int32
		hosted := true
		if f, i := r.tree.maxFree(); i >= 0 && f >= 2*rb {
			s = int32(i)
			_, hosted = r.search(t, s)
		} else if s = r.freestHost(t, rb); s < 0 {
			s, hosted = r.deploy(it, capacity), false
			deployed++
		}
		free := r.free(s)
		if !hosted {
			free -= rb
		}
		k := min(free/rb, int64(len(subs)))
		if k <= 0 {
			return deployed, fmt.Errorf("%w: topic %d needs %d bytes/h for one pair, a fresh %s carries %d",
				ErrInfeasible, t, 2*rb, it.Name, capacity)
		}
		r.place(s, t, rb, subs[:k])
		subs = subs[k:]
	}
	return deployed, nil
}

// EpochOutcome reports one incremental epoch: the materialized result,
// churn counters, and the regret bookkeeping the fallback decision needs.
type EpochOutcome struct {
	// Result is the materialized selection + allocation after the epoch.
	Result *Result
	// Dropped counts placed pairs removed this epoch (unsubscribed, or
	// evicted by a rate spike — evicted pairs that are re-added appear in
	// Inserted too). Inserted counts pairs added by the indexed top-up;
	// Improved counts pairs relocated by the local-improvement pass; Kept
	// is the remainder that stayed on their VM.
	Dropped, Inserted, Improved, Kept int64
	// LB is the incrementally maintained lower bound for the epoch's
	// workload, and Regret the materialized cost's fractional excess over
	// it. BaseRegret is the same measure taken at the last full solve —
	// regret drift beyond it is what triggers a full re-solve.
	Regret, BaseRegret float64
	LB                 Bound

	// Per-pass telemetry for the observability layer. Evicted counts pairs
	// forced out by the over-capacity eviction pass (a subset of Dropped);
	// DrainMoved counts pairs relocated by the consolidation drain (a
	// subset of Improved, rolled-back drain work included). TouchedTopics
	// and DirtySubs size the epoch's repair frontier. ImproveBudget is the
	// relocation budget granted to FinishEpoch and BudgetSpent what the
	// improve + drain passes actually consumed of it. ReleasedVMs counts
	// VMs freed by end-of-epoch compaction.
	Evicted, DrainMoved        int64
	TouchedTopics, DirtySubs   int64
	ImproveBudget, BudgetSpent int64
	ReleasedVMs                int64
}

// IncrementalState persists the Stage-2 index as live mutable state over
// an adopted allocation, with the pair-level bookkeeping needed to absorb
// workload deltas in O(delta): per-subscriber selected-topic rows aligned
// with the hosting slot of each pair, delivered rates, and the running
// Σ_v max(τ_v, min-rate) term of the lower bound.
//
// Lifecycle: build once from an allocation (Allocation.Index), then per
// epoch call BeginEpoch (swaps in the next workload and re-rates changed
// topics), Unsubscribe/Subscribe per delta pair, and FinishEpoch (evicts
// over-capacity slots, tops dirty subscribers back up to τ_v, runs the
// bounded local-improvement pass, releases empty VMs, and materializes a
// fresh immutable Result). The state is not safe for concurrent use, and
// an error from BeginEpoch/FinishEpoch leaves it unusable — discard it
// and rebuild from the last adopted allocation.
type IncrementalState struct {
	cfg Config // normalized
	msg int64
	w   *workload.Workload
	r   *Rehomer // over private VM clones

	// Parallel per-subscriber rows: selRows[v] lists v's selected topics
	// ascending; hostRows[v][i] is the slot serving (selRows[v][i], v).
	selRows    [][]workload.TopicID
	hostRows   [][]int32
	delivered  []int64 // Σ rates of selected topics per subscriber
	lbTerm     []int64 // max(τ_v, min-rate) per subscriber
	lbEvents   int64   // Σ lbTerm
	totalPairs int64

	base       *Allocation // allocation this state currently mirrors
	baseRegret float64     // regret at the last full solve

	// Epoch scratch. stale queues, once each, the subscribers whose
	// lower-bound term a re-rate shifted.
	dirtyFlag, staleFlag        []bool
	dirty, stale                []workload.SubID
	touched                     map[workload.TopicID]struct{}
	emptied                     []int32
	overfull                    []int32 // candidate slots, may contain duplicates
	dropped, inserted, improved int64
	evicted, drainMoved         int64
	budgetSpent, releasedVMs    int64
	epochOpen                   bool
}

// Index builds the persistent incremental layer over this allocation (see
// IncrementalState). The allocation itself is neither retained mutable nor
// modified — the state works on private VM clones — but it is remembered
// by pointer as the state's base, which is how callers detect that a state
// still corresponds to their current allocation. w must be the workload
// the allocation was solved for; cfg the solve config.
func (a *Allocation) Index(w *workload.Workload, cfg Config) (*IncrementalState, error) {
	return NewIncrementalState(w, a, cfg)
}

// NewIncrementalState is Allocation.Index with the allocation explicit.
// An allocation that fails CheckPlacements against w, or places a pair
// more than once, is an error.
func NewIncrementalState(w *workload.Workload, alloc *Allocation, cfg Config) (*IncrementalState, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := CheckPlacements(w, alloc); err != nil {
		return nil, fmt.Errorf("core: index: %w", err)
	}
	numV := w.NumSubscribers()
	s := &IncrementalState{
		cfg:       cfg,
		msg:       cfg.MessageBytes,
		w:         w,
		selRows:   make([][]workload.TopicID, numV),
		hostRows:  make([][]int32, numV),
		delivered: make([]int64, numV),
		lbTerm:    make([]int64, numV),
		dirtyFlag: make([]bool, numV),
		staleFlag: make([]bool, numV),
		touched:   make(map[workload.TopicID]struct{}),
		base:      alloc,
	}
	vms := make([]*VM, len(alloc.VMs))
	for i, vm := range alloc.VMs {
		vms[i] = SnapshotVM(vm, i)
	}
	s.r = newRehomer(vms, cfg.Fleet, s.msg)
	// The pair rows split into a topic CSR and a host CSR. Each
	// subscriber's rows are capped windows of them, so an epoch's insert
	// copies only the row it grows.
	rows := alloc.PairRows(w.NumTopics(), numV)
	n := len(rows.entries)
	topics, hosts := make([]workload.TopicID, n), make([]int32, n)
	for v := range numV {
		lo, hi := rows.off[v], rows.off[v+1]
		for i := lo; i < hi; i++ {
			e := rows.entries[i]
			if i > lo && e.Topic == topics[i-1] {
				return nil, fmt.Errorf("core: pair (t=%d, v=%d) placed more than once", e.Topic, v)
			}
			topics[i], hosts[i] = e.Topic, e.Slot
			s.delivered[v] += w.Rate(e.Topic)
		}
		s.selRows[v], s.hostRows[v] = topics[lo:hi:hi], hosts[lo:hi:hi]
		s.lbTerm[v] = s.lbTermOf(workload.SubID(v))
		s.lbEvents += s.lbTerm[v]
	}
	s.totalPairs = int64(n)
	s.baseRegret = regretFrac(alloc.Cost(cfg.Model), boundFromEvents(s.lbEvents, cfg).Cost)
	return s, nil
}

// Base returns the allocation this state currently mirrors: the one it was
// built from, or the Result.Allocation of the last FinishEpoch. A caller
// whose current allocation is no longer identical (by pointer) to Base
// must rebuild the state before the next epoch.
func (s *IncrementalState) Base() *Allocation { return s.base }

// BaseRegret reports the cost regret versus the lower bound measured at
// the last full solve — the floor incremental epochs are allowed to drift
// above by the fallback threshold.
func (s *IncrementalState) BaseRegret() float64 { return s.baseRegret }

// lbTermOf computes subscriber v's lower-bound term max(τ_v, min-rate)
// under the current workload.
func (s *IncrementalState) lbTermOf(v workload.SubID) int64 {
	tauV := s.w.TauV(v, s.cfg.Tau)
	if m := s.w.MinRate(v); m > tauV {
		tauV = m
	}
	return tauV
}

// setLBTerm refreshes v's lower-bound term, keeping the running sum.
func (s *IncrementalState) setLBTerm(v workload.SubID) {
	nt := s.lbTermOf(v)
	s.lbEvents += nt - s.lbTerm[v]
	s.lbTerm[v] = nt
}

func (s *IncrementalState) markDirty(v workload.SubID) {
	if !s.dirtyFlag[v] {
		s.dirtyFlag[v] = true
		s.dirty = append(s.dirty, v)
	}
}

// BeginEpoch opens an epoch against the next workload snapshot (IDs must
// extend the current one): per-subscriber arrays grow for new subscribers,
// changed topics are re-rated in place across their host VMs (collecting
// slots pushed over capacity for FinishEpoch's eviction pass), and the
// lower-bound terms of every affected subscriber are refreshed.
func (s *IncrementalState) BeginEpoch(ctx context.Context, next *workload.Workload, rateChanged []workload.TopicID) error {
	if s.epochOpen {
		return errors.New("core: incremental epoch already open")
	}
	if next.NumTopics() < s.w.NumTopics() || next.NumSubscribers() < s.w.NumSubscribers() {
		return fmt.Errorf("core: incremental epoch shrinks the workload %d/%d → %d/%d (IDs must be stable)",
			s.w.NumTopics(), s.w.NumSubscribers(), next.NumTopics(), next.NumSubscribers())
	}
	s.epochOpen = true
	s.dropped, s.inserted, s.improved = 0, 0, 0
	s.evicted, s.drainMoved = 0, 0
	s.budgetSpent, s.releasedVMs = 0, 0
	clear(s.touched)
	s.emptied = s.emptied[:0]
	s.overfull = s.overfull[:0]

	old := s.w
	s.w = next
	for v := old.NumSubscribers(); v < next.NumSubscribers(); v++ {
		s.selRows = append(s.selRows, nil)
		s.hostRows = append(s.hostRows, nil)
		s.delivered = append(s.delivered, 0)
		s.lbTerm = append(s.lbTerm, 0)
		s.dirtyFlag = append(s.dirtyFlag, false)
		s.staleFlag = append(s.staleFlag, false)
		s.markDirty(workload.SubID(v))
	}

	// Deduplicate so a topic listed twice is re-rated once (the delta is
	// computed against the pre-epoch workload, so a second pass would apply
	// it again).
	rc := slices.Clone(rateChanged)
	slices.Sort(rc)
	rc = slices.Compact(rc)
	for _, t := range rc {
		if err := ctx.Err(); err != nil {
			return err
		}
		if int(t) >= old.NumTopics() {
			continue // a new topic: no hosts or delivered state yet
		}
		oldR, newR := old.Rate(t), next.Rate(t)
		if oldR == newR {
			continue
		}
		dR := newR - oldR
		drb := dR * s.msg
		s.touched[t] = struct{}{}
		for _, h := range s.r.hostsOf(t) {
			vm := s.r.alloc.VMs[h.slot]
			subs := vm.Placements[h.pi].Subs
			vm.InBytesPerHour += drb
			vm.OutBytesPerHour += drb * int64(len(subs))
			s.r.tree.set(int(h.slot), vm.FreeBytesPerHour())
			if vm.FreeBytesPerHour() < 0 {
				s.overfull = append(s.overfull, h.slot)
			}
			for _, v := range subs {
				s.delivered[v] += dR
				// A rate increase on a placed pair cannot open a τ_v gap:
				// need' = τ_v' − delivered' ≤ (τ_v + dR) − (delivered + dR).
				// Only decreases send a subscriber to the top-up pass (the
				// Subscribers loop below refreshes bound terms either way).
				if dR < 0 {
					s.markDirty(v)
				}
			}
		}
		// τ_v and min-rate shift for every interested subscriber, placed
		// or not — the maintained bound must track all of them. Each is
		// refreshed once, after the loop (s.w is already the next workload).
		for _, v := range next.Subscribers(t) {
			if !s.staleFlag[v] {
				s.staleFlag[v] = true
				s.stale = append(s.stale, v)
			}
		}
	}
	for _, v := range s.stale {
		s.staleFlag[v] = false
		s.setLBTerm(v)
	}
	s.stale = s.stale[:0]
	return nil
}

// Unsubscribe removes the pair (t, v) — freeing its slot capacity when it
// was placed — and marks v for FinishEpoch's top-up/lower-bound refresh.
// Must be called between BeginEpoch (whose workload no longer contains the
// pair) and FinishEpoch.
func (s *IncrementalState) Unsubscribe(t workload.TopicID, v workload.SubID) {
	s.markDirty(v) // demand/min-rate changed even for unplaced pairs
	i, ok := slices.BinarySearch(s.selRows[v], t)
	if !ok {
		return // interest was not selected: nothing placed to undo
	}
	slot := s.hostRows[v][i]
	s.selRows[v] = slices.Delete(s.selRows[v], i, i+1)
	s.hostRows[v] = slices.Delete(s.hostRows[v], i, i+1)
	s.r.removeSub(slot, t, s.w.Rate(t)*s.msg, v)
	if len(s.r.alloc.VMs[slot].Placements) == 0 {
		s.emptied = append(s.emptied, slot)
	}
	s.delivered[v] -= s.w.Rate(t)
	s.totalPairs--
	s.dropped++
	s.touched[t] = struct{}{}
}

// Subscribe records the new pair (t, v) as a selection candidate: v is
// marked dirty and FinishEpoch's top-up decides whether the pair must be
// selected and placed to restore τ_v.
func (s *IncrementalState) Subscribe(t workload.TopicID, v workload.SubID) {
	_ = t // the interest itself already lives in the epoch's workload
	s.markDirty(v)
}

// evictPair removes the placed pair (t, v) from slot so an over-capacity
// VM shrinks back under its cap; the subscriber is dirtied and the top-up
// pass re-homes the lost rate (not necessarily the same pair) elsewhere.
func (s *IncrementalState) evictPair(slot int32, t workload.TopicID, v workload.SubID) {
	i, _ := slices.BinarySearch(s.selRows[v], t)
	s.selRows[v] = slices.Delete(s.selRows[v], i, i+1)
	s.hostRows[v] = slices.Delete(s.hostRows[v], i, i+1)
	s.r.removeSub(slot, t, s.w.Rate(t)*s.msg, v)
	if len(s.r.alloc.VMs[slot].Placements) == 0 {
		s.emptied = append(s.emptied, slot)
	}
	s.delivered[v] -= s.w.Rate(t)
	s.totalPairs--
	s.dropped++
	s.evicted++
	s.markDirty(v)
}

// FinishEpoch closes the epoch: evict rate-spiked slots back under
// capacity, top dirty subscribers back up to τ_v through the indexed
// placement rule, run the bounded local-improvement pass over touched
// topics (improveBudget caps relocated pairs; ≤ 0 disables), release empty
// VMs, and materialize an immutable Result with the epoch's regret
// bookkeeping. On error the state must be discarded.
func (s *IncrementalState) FinishEpoch(ctx context.Context, improveBudget int64) (EpochOutcome, error) {
	if !s.epochOpen {
		return EpochOutcome{}, errors.New("core: FinishEpoch without BeginEpoch")
	}
	if err := s.evictOverfull(ctx); err != nil {
		return EpochOutcome{}, err
	}
	dirtySubs := int64(len(s.dirty))
	if err := s.topUpDirty(ctx); err != nil {
		return EpochOutcome{}, err
	}
	if improveBudget > 0 {
		rem, err := s.improveTouched(ctx, improveBudget)
		if err != nil {
			return EpochOutcome{}, err
		}
		s.budgetSpent = improveBudget - rem
		if err := s.drainUnderused(ctx, rem); err != nil {
			return EpochOutcome{}, err
		}
		s.budgetSpent += s.drainMoved
	}
	touchedTopics := int64(len(s.touched))
	s.compactEmpties()
	out, sel := s.materialize()
	s.base = out
	s.epochOpen = false
	lb := boundFromEvents(s.lbEvents, s.cfg)
	regret := regretFrac(out.Cost(s.cfg.Model), lb.Cost)
	kept := s.totalPairs - s.inserted - s.improved
	if kept < 0 {
		kept = 0
	}
	return EpochOutcome{
		Result:        &Result{Selection: sel, Allocation: out},
		Dropped:       s.dropped,
		Inserted:      s.inserted,
		Improved:      s.improved,
		Kept:          kept,
		Regret:        regret,
		BaseRegret:    s.baseRegret,
		LB:            lb,
		Evicted:       s.evicted,
		DrainMoved:    s.drainMoved,
		TouchedTopics: touchedTopics,
		DirtySubs:     dirtySubs,
		ImproveBudget: improveBudget,
		BudgetSpent:   s.budgetSpent,
		ReleasedVMs:   s.releasedVMs,
	}, nil
}

// evictOverfull walks the slots a re-rate left over capacity and evicts
// pairs of the touched topics (newest placements first) until each slot
// fits again. Usually that suffices, but a slot can enter the epoch
// already above its recorded capacity: the index may be built over an
// allocation that was validated against a larger bound (the elastic keep
// path checks the true fleet while recording headroom-derated
// capacities). When such a slot runs out of touched pairs, its newest
// untouched placement is marked touched and evicted next, so the pass
// still terminates with every slot within its recorded capacity.
func (s *IncrementalState) evictOverfull(ctx context.Context) error {
	if len(s.overfull) == 0 {
		return nil
	}
	slices.Sort(s.overfull)
	s.overfull = slices.Compact(s.overfull)
	for _, slot := range s.overfull {
		if err := ctx.Err(); err != nil {
			return err
		}
		for s.r.alloc.VMs[slot].FreeBytesPerHour() < 0 {
			vm := s.r.alloc.VMs[slot]
			evicted := false
			for pi := len(vm.Placements) - 1; pi >= 0; pi-- {
				t := vm.Placements[pi].Topic
				if _, ok := s.touched[t]; !ok {
					continue
				}
				subs := vm.Placements[pi].Subs
				s.evictPair(slot, t, subs[len(subs)-1])
				evicted = true
				break
			}
			if !evicted {
				n := len(vm.Placements)
				if n == 0 {
					return fmt.Errorf("core: empty slot %d over capacity", slot)
				}
				s.touched[vm.Placements[n-1].Topic] = struct{}{}
			}
		}
	}
	return nil
}

// topUpDirty restores τ_v for every dirty subscriber through the shared
// minimal-overshoot top-up (Rehomer.TopUp), recording each added pair in
// the subscriber's rows. It also refreshes each dirty subscriber's
// lower-bound term.
func (s *IncrementalState) topUpDirty(ctx context.Context) error {
	slices.Sort(s.dirty)
	for n, v := range s.dirty {
		if n%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.setLBTerm(v)
		need := s.w.TauV(v, s.cfg.Tau) - s.delivered[v]
		if need <= 0 {
			continue
		}
		err := s.r.TopUp(s.w, v, s.selRows[v], need, func(t workload.TopicID, slot int32) {
			k, _ := slices.BinarySearch(s.selRows[v], t)
			s.selRows[v] = slices.Insert(s.selRows[v], k, t)
			s.hostRows[v] = slices.Insert(s.hostRows[v], k, slot)
			s.delivered[v] += s.w.Rate(t)
			s.totalPairs++
			s.inserted++
			s.touched[t] = struct{}{}
		})
		if err != nil {
			return err
		}
	}
	for _, v := range s.dirty {
		s.dirtyFlag[v] = false
	}
	s.dirty = s.dirty[:0]
	return nil
}

// improveTouched runs the bounded local-improvement pass: for each topic
// touched this epoch that is split across several VMs, merge its smallest
// group into the most-free other host with room — each merge removes one
// duplicated ingress stream (and often frees a VM for release) without any
// capacity risk. budget caps the total pairs relocated, keeping the pass
// delta-proportional; the leftover budget is returned for the drain pass.
func (s *IncrementalState) improveTouched(ctx context.Context, budget int64) (int64, error) {
	topics := make([]workload.TopicID, 0, len(s.touched))
	for t := range s.touched {
		topics = append(topics, t)
	}
	slices.Sort(topics)
	for _, t := range topics {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if budget <= 0 {
			break
		}
		rb := s.w.Rate(t) * s.msg
		for budget > 0 {
			hs := s.r.hostsOf(t)
			if len(hs) < 2 {
				break
			}
			// Smallest group (lowest slot on ties) is the cheapest merge.
			a, ka := int32(-1), 0
			for _, h := range hs {
				k := len(s.r.alloc.VMs[h.slot].Placements[h.pi].Subs)
				if a < 0 || k < ka {
					a, ka = h.slot, k
				}
			}
			if int64(ka) > budget {
				break
			}
			b, bf := int32(-1), int64(-1)
			for _, h := range hs {
				if h.slot == a {
					continue
				}
				if f := s.r.free(h.slot); f >= rb*int64(ka) && f > bf {
					b, bf = h.slot, f
				}
			}
			if b < 0 {
				break // no receiver has room for even the smallest group
			}
			subs := s.r.removePlacement(a, t, rb)
			s.r.place(b, t, rb, subs)
			for _, v := range subs {
				i, _ := slices.BinarySearch(s.selRows[v], t)
				s.hostRows[v][i] = b
			}
			if len(s.r.alloc.VMs[a].Placements) == 0 {
				s.emptied = append(s.emptied, a)
			}
			budget -= int64(ka)
			s.improved += int64(ka)
		}
	}
	return budget, nil
}

// drainUnderused consolidates VMs left underused by this epoch's
// removals: candidate slots (ascending by bytes served) are drained
// pair-by-pair onto the rest of the fleet through the no-deploy placement
// rule and released when they empty. Scattered unsubscribes strand free
// capacity across the whole fleet — the lower bound falls with the
// removed pairs while rental cost only falls when a VM empties
// completely, so without consolidation a removal-heavy epoch's regret
// drifts by roughly its removed-pair fraction. A slot whose pairs do not
// all fit elsewhere is restored untouched, and the pass stops after a few
// consecutive failures (denser slots only drain harder). budget caps
// relocated pairs, keeping the pass delta-proportional; epochs that
// removed nothing skip it entirely.
func (s *IncrementalState) drainUnderused(ctx context.Context, budget int64) error {
	if budget <= 0 || s.dropped == 0 || len(s.r.alloc.VMs) < 2 {
		return nil
	}
	order := make([]int32, 0, len(s.r.alloc.VMs))
	for i, vm := range s.r.alloc.VMs {
		if len(vm.Placements) > 0 {
			order = append(order, int32(i))
		}
	}
	used := func(i int32) int64 {
		return s.r.alloc.VMs[i].InBytesPerHour + s.r.alloc.VMs[i].OutBytesPerHour
	}
	sort.Slice(order, func(i, j int) bool {
		ui, uj := used(order[i]), used(order[j])
		if ui != uj {
			return ui < uj
		}
		return order[i] < order[j]
	})
	const maxConsecutiveFailures = 4
	fails := 0
	for _, a := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		if budget <= 0 || fails >= maxConsecutiveFailures {
			break
		}
		moved, ok := s.drainSlot(a, budget)
		budget -= moved
		s.drainMoved += moved
		if ok {
			fails = 0
		} else {
			fails++
		}
	}
	return nil
}

type drainMove struct {
	t  workload.TopicID
	v  workload.SubID
	to int32
}

// drainSlot re-homes every pair on slot a onto other deployed VMs,
// leaving a empty for compaction — or restores it untouched when the
// fleet has no room (or the budget runs out mid-drain). It reports the
// pairs relocated, counted against the budget even on rollback: the work
// was done either way.
func (s *IncrementalState) drainSlot(a int32, budget int64) (int64, bool) {
	saved := SnapshotVM(s.r.alloc.VMs[a], int(a))
	var moves []drainMove
	// A zero free-capacity leaf hides a from the most-free rule for the
	// duration (its host-list entries disappear with each removePlacement
	// below), so nothing re-fills the slot being drained.
	s.r.tree.set(int(a), 0)
	ok := true
drain:
	for len(s.r.alloc.VMs[a].Placements) > 0 {
		t := s.r.alloc.VMs[a].Placements[len(s.r.alloc.VMs[a].Placements)-1].Topic
		rb := s.w.Rate(t) * s.msg
		subs := s.r.removePlacement(a, t, rb)
		// removePlacement recomputed a's leaf from its true (grown) free —
		// re-hide it, or the most-free rule hands the pairs straight back.
		s.r.tree.set(int(a), 0)
		for _, v := range subs {
			if int64(len(moves)) >= budget {
				ok = false
				break drain
			}
			slot, placed := s.r.placeNoDeploy(t, v, rb)
			if !placed {
				ok = false
				break drain
			}
			i, _ := slices.BinarySearch(s.selRows[v], t)
			s.hostRows[v][i] = slot
			moves = append(moves, drainMove{t: t, v: v, to: slot})
		}
	}
	if ok {
		s.emptied = append(s.emptied, a)
		s.improved += int64(len(moves))
		return int64(len(moves)), true
	}
	// Rollback: undo the relocations newest-first (a placement opened by a
	// drained group dissolves as its last subscriber leaves), then restore
	// a's snapshot. The drain popped a's placements from the end, so the
	// ones left are a prefix of the snapshot and keep their host entries;
	// the popped ones get theirs back.
	for i := len(moves) - 1; i >= 0; i-- {
		m := moves[i]
		s.r.removeSub(m.to, m.t, s.w.Rate(m.t)*s.msg, m.v)
		j, _ := slices.BinarySearch(s.selRows[m.v], m.t)
		s.hostRows[m.v][j] = a
	}
	for pi := len(s.r.alloc.VMs[a].Placements); pi < len(saved.Placements); pi++ {
		t := saved.Placements[pi].Topic
		h, _ := s.r.search(t, a)
		s.r.addHost(t, h, a, pi)
	}
	s.r.alloc.VMs[a] = saved
	s.r.tree.set(int(a), saved.FreeBytesPerHour())
	return int64(len(moves)), false
}

// compactEmpties releases VMs emptied this epoch: trailing empties are
// trimmed, interior holes are filled by relocating the last VM's slot
// (re-pointing its host lists and pair rows), so rental cost never carries
// dead VMs across epochs.
func (s *IncrementalState) compactEmpties() {
	before := int64(len(s.r.alloc.VMs))
	defer func() { s.releasedVMs += before - int64(len(s.r.alloc.VMs)) }()
	s.r.trimTrailingEmpty()
	if len(s.emptied) == 0 {
		return
	}
	slices.Sort(s.emptied)
	s.emptied = slices.Compact(s.emptied)
	for _, e := range s.emptied {
		last := int32(len(s.r.alloc.VMs) - 1)
		if e >= last {
			continue // already trimmed, or it is the last slot
		}
		if len(s.r.alloc.VMs[e].Placements) != 0 {
			continue // refilled by top-up after it emptied
		}
		s.moveSlot(last, e)
		s.r.trimTrailingEmpty()
	}
	s.emptied = s.emptied[:0]
}

// moveSlot relocates the (non-empty) VM in slot from into the empty slot
// to, re-pointing its host entries and the pair rows of every subscriber
// it serves.
func (s *IncrementalState) moveSlot(from, to int32) {
	s.r.move(from, to)
	for _, p := range s.r.alloc.VMs[to].Placements {
		for _, v := range p.Subs {
			i, _ := slices.BinarySearch(s.selRows[v], p.Topic)
			s.hostRows[v][i] = to
		}
	}
}

// materialize snapshots the live state into an immutable Result: a fresh
// allocation (deep VM clones, so later epochs never mutate what callers
// adopted) and the selection flattened from the maintained rows.
func (s *IncrementalState) materialize() (*Allocation, *Selection) {
	out := &Allocation{
		VMs:          make([]*VM, len(s.r.alloc.VMs)),
		Fleet:        s.cfg.Fleet,
		MessageBytes: s.msg,
	}
	for i, vm := range s.r.alloc.VMs {
		out.VMs[i] = SnapshotVM(vm, i)
	}
	subOff := make([]int64, 1, len(s.selRows)+1)
	subTopics := make([]workload.TopicID, 0, s.totalPairs)
	for v := range s.selRows {
		subTopics = append(subTopics, s.selRows[v]...)
		subOff = append(subOff, int64(len(subTopics)))
	}
	return out, &Selection{w: s.w, subOff: subOff, subTopics: subTopics}
}

// SnapshotVM deep-copies a VM, placements included, giving the copy ID id.
// The copies of the subscriber lists share one backing array, each a
// window clamped to its length, so an append to one reallocates it rather
// than writing into the next.
func SnapshotVM(vm *VM, id int) *VM {
	nv := &VM{
		ID:                   id,
		Instance:             vm.Instance,
		CapacityBytesPerHour: vm.CapacityBytesPerHour,
		Placements:           make([]TopicPlacement, len(vm.Placements)),
		OutBytesPerHour:      vm.OutBytesPerHour,
		InBytesPerHour:       vm.InBytesPerHour,
	}
	n := 0
	for _, p := range vm.Placements {
		n += len(p.Subs)
	}
	buf := make([]workload.SubID, 0, n)
	for i, p := range vm.Placements {
		j := len(buf)
		buf = append(buf, p.Subs...)
		nv.Placements[i] = TopicPlacement{Topic: p.Topic, Subs: buf[j:len(buf):len(buf)]}
	}
	return nv
}

// regretFrac is the fractional excess of cost over the lower bound.
func regretFrac(cost, lb pricing.MicroUSD) float64 {
	if lb <= 0 {
		return 0
	}
	return (float64(cost) - float64(lb)) / float64(lb)
}
