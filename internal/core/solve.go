package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// Solve runs the two-stage MCSS heuristic on the workload under the given
// configuration and returns the selection, the allocation, and per-stage
// wall times. It is SolveContext under context.Background(); long-running
// callers (services, controllers, CLIs) should prefer SolveContext.
func Solve(w *workload.Workload, cfg Config) (*Result, error) {
	return SolveContext(context.Background(), w, cfg)
}

// SolveContext runs the MCSS solve under a context: cancellation (or
// deadline expiry) is polled at bounded intervals inside every stage's hot
// loop — the solve returns ctx.Err() promptly without finishing — and
// Config.Observer receives per-stage progress callbacks. A non-nil
// Config.Solver replaces the whole two-stage pipeline; otherwise Stage 1
// runs Config.Stage1 (nil = GSP) and Stage 2 runs Config.Stage2 (nil =
// CBP).
func SolveContext(ctx context.Context, w *workload.Workload, cfg Config) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.Observer = ResolveObserver(ctx, cfg)
	if cfg.Solver != nil {
		return cfg.Solver(ctx, w, cfg)
	}
	start := time.Now()
	sel, err := runStage1(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Since(start)

	start = time.Now()
	alloc, err := runStage2(ctx, sel, cfg)
	if err != nil {
		return nil, err
	}
	t2 := time.Since(start)

	return &Result{
		Selection:  sel,
		Allocation: alloc,
		Stage1Time: t1,
		Stage2Time: t2,
	}, nil
}

// VerifyAllocation checks the solver's postconditions against the original
// workload and configuration:
//
//  1. satisfaction — every subscriber's allocated pairs deliver ≥ τ_v;
//  2. capacity — every VM's accounted bandwidth is within its own
//     instance's capacity BC_b (unless LenientFirstFit permitted the
//     paper's literal overshoot), and each VM's recorded capacity is
//     consistent with the fleet it claims to come from;
//  3. accounting — each VM's Out/InBytesPerHour match its placements, a
//     topic appears at most once per VM, and the total pair count matches
//     the selection;
//  4. consistency — every placed pair was selected, and every selected pair
//     is placed at least once.
//
// It returns nil when all hold. This is the oracle used by integration and
// property tests.
func VerifyAllocation(w *workload.Workload, sel *Selection, alloc *Allocation, cfg Config) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	fleet := cfg.EffectiveFleet()
	numT, numV := w.NumTopics(), w.NumSubscribers()

	// onVM[t] is 1 + the index of the last VM found serving topic t.
	onVM := make([]int32, numT)
	var totalPlaced int64
	for i, vm := range alloc.VMs {
		var out, in int64
		for _, p := range vm.Placements {
			// Range checks come before anything is indexed by topic or
			// subscriber.
			if int(p.Topic) < 0 || int(p.Topic) >= numT {
				return fmt.Errorf("vm %d: topic %d outside the workload", vm.ID, p.Topic)
			}
			for _, v := range p.Subs {
				if int(v) < 0 || int(v) >= numV {
					return fmt.Errorf("vm %d: subscriber %d outside the workload", vm.ID, v)
				}
			}
			if onVM[p.Topic] == int32(i+1) {
				return fmt.Errorf("vm %d: topic %d appears in multiple placements", vm.ID, p.Topic)
			}
			onVM[p.Topic] = int32(i + 1)
			rb := w.Rate(p.Topic) * cfg.MessageBytes
			in += rb
			out += rb * int64(len(p.Subs))
			totalPlaced += int64(len(p.Subs))
		}
		if out != vm.OutBytesPerHour || in != vm.InBytesPerHour {
			return fmt.Errorf("vm %d: accounted bw (out=%d,in=%d) != recomputed (out=%d,in=%d)",
				vm.ID, vm.OutBytesPerHour, vm.InBytesPerHour, out, in)
		}
		// Each VM is checked against its own instance's capacity. A VM
		// without a recorded capacity (legacy construction) falls back to
		// the fleet's capacity for its type, then the model's BC.
		cap := vm.CapacityBytesPerHour
		if i := fleet.IndexByName(vm.Instance.Name); i >= 0 {
			if cap == 0 {
				cap = fleet.Capacity(i)
			} else if cap != fleet.Capacity(i) {
				return fmt.Errorf("vm %d: recorded capacity %d does not match fleet capacity %d for %s",
					vm.ID, cap, fleet.Capacity(i), vm.Instance.Name)
			}
		} else if cap == 0 {
			cap = cfg.Model.CapacityBytesPerHour()
		}
		if !cfg.LenientFirstFit && vm.BytesPerHour() > cap {
			return fmt.Errorf("vm %d (%s): bandwidth %d exceeds capacity %d",
				vm.ID, vm.Instance.Name, vm.BytesPerHour(), cap)
		}
	}

	if totalPlaced != sel.NumPairs() {
		return fmt.Errorf("placed %d pair instances, selection has %d pairs", totalPlaced, sel.NumPairs())
	}

	off, rows := alloc.SubscriberRows(numV)

	// Every selected pair must be placed exactly once, and nothing else.
	// Each subscriber's placed row is counted into count, indexed by
	// topic, and checked against its selected row, neither of which needs
	// to be sorted; count is zeroed again before the next subscriber. The
	// first bad pair in the selection's subscriber-major order is
	// reported, then unselected pairs, then the first τ shortfall: by then
	// the placed pairs are the selected ones, so a subscriber's delivered
	// rate is the rate of its selected row.
	count := make([]int32, numT)
	var unselected int
	short, shortGot := -1, int64(0)
	numSel := len(sel.subOff) - 1
	for v := 0; v < max(numV, numSel); v++ {
		var placed []workload.TopicID
		if v < numV {
			placed = rows[off[v]:off[v+1]]
		}
		for _, t := range placed {
			count[t]++
		}
		var got int64
		if v < numSel {
			for _, t := range sel.SelectedTopics(workload.SubID(v)) {
				var n int32
				if int(t) >= 0 && int(t) < numT {
					n = count[t]
				}
				if n != 1 {
					return fmt.Errorf("pair (t=%d,v=%d) placed %d times, want 1", t, v, n)
				}
				count[t] = 0
				got += w.Rate(t)
			}
		}
		for _, t := range placed {
			if count[t] != 0 {
				unselected++
				count[t] = 0
			}
		}
		if short < 0 && v < numV && got < w.TauV(workload.SubID(v), cfg.Tau) {
			short, shortGot = v, got
		}
	}
	if unselected != 0 {
		return fmt.Errorf("%d placed pairs were never selected", unselected)
	}
	if short >= 0 {
		return fmt.Errorf("subscriber %d delivered %d events/h, needs %d", short, shortGot, w.TauV(workload.SubID(short), cfg.Tau))
	}
	return nil
}

// SubscriberRows groups the allocation's placed pairs by subscriber with
// one counting pass: row v is rows[off[v]:off[v+1]], the topics of v's
// pairs in placement order (VM by VM), a pair placed twice listed twice.
// numV must exceed every placed subscriber ID.
func (a *Allocation) SubscriberRows(numV int) (off []int64, rows []workload.TopicID) {
	off = make([]int64, numV+1)
	for _, vm := range a.VMs {
		for _, p := range vm.Placements {
			for _, v := range p.Subs {
				off[v+1]++
			}
		}
	}
	for v := 0; v < numV; v++ {
		off[v+1] += off[v]
	}
	rows = make([]workload.TopicID, off[numV])
	next := slices.Clone(off[:numV])
	for _, vm := range a.VMs {
		for _, p := range vm.Placements {
			for _, v := range p.Subs {
				rows[next[v]] = p.Topic
				next[v]++
			}
		}
	}
	return off, rows
}

// VerifyServes checks that an allocation serves the workload without
// requiring it to match a particular Stage-1 selection: satisfaction
// (every subscriber's distinct placed pairs deliver ≥ τ_v), per-VM
// capacity against the allocation's own fleet, bandwidth accounting, a
// topic at most once per VM, and every placed pair referencing a real
// subscription. It is the oracle for allocations that legitimately drift
// from their originating selection — kept/topped-up epochs, crash repairs,
// and chaos-mode replay — where VerifyAllocation's exact pair-set equality
// would reject a correct placement.
func VerifyServes(w *workload.Workload, alloc *Allocation, cfg Config) error {
	// The verifier's own fleet wins the capacity lookup: an allocation's
	// recorded fleet (and per-VM capacities) may be headroom-derated by the
	// packing config, while the caller's cfg.Fleet carries the true bounds.
	explicit := cfg.Fleet
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	fleet := explicit
	if fleet.IsZero() {
		fleet = cfg.Model.FleetOr(alloc.Fleet)
	}

	delivered := make([]int64, w.NumSubscribers())
	type pairKey struct {
		t workload.TopicID
		v workload.SubID
	}
	seenPairs := make(map[pairKey]bool)
	for _, vm := range alloc.VMs {
		var out, in int64
		seenTopics := make(map[workload.TopicID]bool, len(vm.Placements))
		for _, p := range vm.Placements {
			if seenTopics[p.Topic] {
				return fmt.Errorf("vm %d: topic %d appears in multiple placements", vm.ID, p.Topic)
			}
			seenTopics[p.Topic] = true
			if int(p.Topic) < 0 || int(p.Topic) >= w.NumTopics() {
				return fmt.Errorf("vm %d: topic %d outside the workload", vm.ID, p.Topic)
			}
			rb := w.Rate(p.Topic) * cfg.MessageBytes
			in += rb
			out += rb * int64(len(p.Subs))
			for _, v := range p.Subs {
				if int(v) < 0 || int(v) >= w.NumSubscribers() {
					return fmt.Errorf("vm %d: subscriber %d outside the workload", vm.ID, v)
				}
				if _, ok := slices.BinarySearch(w.Topics(v), p.Topic); !ok {
					return fmt.Errorf("vm %d: pair (t=%d,v=%d) is not a subscription", vm.ID, p.Topic, v)
				}
				k := pairKey{p.Topic, v}
				if !seenPairs[k] {
					delivered[v] += w.Rate(p.Topic)
					seenPairs[k] = true
				}
			}
		}
		if out != vm.OutBytesPerHour || in != vm.InBytesPerHour {
			return fmt.Errorf("vm %d: accounted bw (out=%d,in=%d) != recomputed (out=%d,in=%d)",
				vm.ID, vm.OutBytesPerHour, vm.InBytesPerHour, out, in)
		}
		// True capacity resolves fleet-first: recorded per-VM capacities may
		// be headroom-derated by the packing config, while the verifier's
		// fleet carries the un-derated bound (the same order the elastic
		// controller validates kept allocations in).
		var cap int64
		if i := fleet.IndexByName(vm.Instance.Name); i >= 0 {
			cap = fleet.Capacity(i)
		}
		if cap == 0 {
			cap = vm.CapacityBytesPerHour
		}
		if cap == 0 {
			cap = cfg.Model.CapacityBytesPerHour()
		}
		if !cfg.LenientFirstFit && vm.BytesPerHour() > cap {
			return fmt.Errorf("vm %d (%s): bandwidth %d exceeds capacity %d",
				vm.ID, vm.Instance.Name, vm.BytesPerHour(), cap)
		}
	}
	for v := 0; v < w.NumSubscribers(); v++ {
		tauV := w.TauV(workload.SubID(v), cfg.Tau)
		if delivered[v] < tauV {
			return fmt.Errorf("subscriber %d delivered %d events/h, needs %d", v, delivered[v], tauV)
		}
	}
	return nil
}
