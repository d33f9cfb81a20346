package core

import (
	"context"
	"fmt"
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
// CBP). A workload tagged with a region a multi-region Config.Topology
// lacks, or a fleet type in a region it does not name, is an error before
// either runs.
func SolveContext(ctx context.Context, w *workload.Workload, cfg Config) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkRegions(w, cfg.Topology); err != nil {
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
//     instance's capacity BC_b, and each VM's recorded capacity is
//     consistent with the fleet it claims to come from;
//  3. accounting — each VM's Out/InBytesPerHour match its placements,
//     which pass CheckPlacements;
//  4. consistency — every placed pair is a subscription, was selected and
//     is placed exactly once, and every selected pair is placed.
//
// It returns nil when all hold. This is the oracle used by integration and
// property tests.
func VerifyAllocation(w *workload.Workload, sel *Selection, alloc *Allocation, cfg Config) error {
	return verify(w, sel, alloc, cfg)
}

// VerifyServes is VerifyAllocation without a selection: the placed pairs
// may be any subscriptions, each placed once, that satisfy every
// subscriber. It is the oracle for allocations that legitimately drift
// from their originating selection — kept/topped-up epochs, crash
// repairs, and chaos-mode replay. Capacity resolves fleet-first, against
// cfg.Fleet when set, else the allocation's own fleet: recorded per-VM
// capacities may be headroom-derated by the packing config, while the
// verifier's fleet carries the true bounds.
func VerifyServes(w *workload.Workload, alloc *Allocation, cfg Config) error {
	return verify(w, nil, alloc, cfg)
}

// verify is the one pass behind both verifiers; sel is nil in serves mode.
// Per VM it runs CheckPlacements' checks, then accounting and capacity;
// then it walks the allocation's pair rows (Allocation.PairRows), keeping
// the first failure of each row rule, by subscriber, then topic, and
// reporting them in rule order: a pair that is not a subscription, a pair
// not placed exactly once, unselected pairs (exact mode), a τ shortfall.
func verify(w *workload.Workload, sel *Selection, alloc *Allocation, cfg Config) error {
	fleet := cfg.Fleet
	if fleet.IsZero() && sel == nil {
		fleet = alloc.Fleet
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	fleet = cfg.Model.FleetOr(fleet)
	exact := sel != nil
	numT, numV := w.NumTopics(), w.NumSubscribers()
	var totalPlaced int64
	err = checkPlacements(w, alloc, func(vm *VM) error {
		var out, in int64
		for _, p := range vm.Placements {
			rb := w.Rate(p.Topic) * cfg.MessageBytes
			in += rb
			out += rb * int64(len(p.Subs))
			totalPlaced += int64(len(p.Subs))
		}
		if out != vm.OutBytesPerHour || in != vm.InBytesPerHour {
			return fmt.Errorf("vm %d: accounted bw (out=%d,in=%d) != recomputed (out=%d,in=%d)",
				vm.ID, vm.OutBytesPerHour, vm.InBytesPerHour, out, in)
		}
		// The fleet's capacity for the VM's type wins; exact mode requires
		// a recorded one to equal it. A VM of an unlisted type keeps its
		// recorded capacity, or without one (legacy construction) takes
		// the model's BC.
		cap := vm.CapacityBytesPerHour
		if i := fleet.IndexByName(vm.Instance.Name); i >= 0 {
			if exact && cap != 0 && cap != fleet.Capacity(i) {
				return fmt.Errorf("vm %d: recorded capacity %d does not match fleet capacity %d for %s",
					vm.ID, cap, fleet.Capacity(i), vm.Instance.Name)
			}
			cap = fleet.Capacity(i)
		}
		if cap == 0 {
			cap = cfg.Model.CapacityBytesPerHour()
		}
		if vm.BytesPerHour() > cap {
			return fmt.Errorf("vm %d (%s): bandwidth %d exceeds capacity %d",
				vm.ID, vm.Instance.Name, vm.BytesPerHour(), cap)
		}
		return nil
	})
	if err != nil {
		return err
	}
	numSel := 0
	if exact {
		if totalPlaced != sel.NumPairs() {
			return fmt.Errorf("placed %d pair instances, selection has %d pairs", totalPlaced, sel.NumPairs())
		}
		numSel = len(sel.subOff) - 1
	}

	rows := alloc.PairRows(numT, numV)

	// Subscriber by subscriber: v's interests are stamped into mark (v+1,
	// so it is never cleared), and v's placed row, in topic order, is
	// counted into count, indexed by topic and zeroed again before the
	// next subscriber. Exact mode checks v's selected row first, each of
	// its pairs counted exactly once; whatever else the row holds was
	// never selected. A subscriber's delivered rate is that of its
	// distinct placed pairs (exact mode: of its selected row, the same
	// pairs once no earlier rule fails).
	mark := make([]int32, numT)
	count := make([]int32, numT)
	var notSub, notOnce error
	var unselected int
	short, shortGot, shortNeed := -1, int64(0), int64(0)
	for v := 0; v < max(numV, numSel); v++ {
		var placed []HostedTopic
		var need int64 // τ_v = min(τ, v's demand), summed while stamping
		if v < numV {
			placed = rows.Row(workload.SubID(v))
			for _, t := range w.Topics(workload.SubID(v)) {
				mark[t] = int32(v + 1)
				need += w.Rate(t)
			}
			need = min(need, cfg.Tau)
		}
		for _, e := range placed {
			t := e.Topic
			if mark[t] != int32(v+1) && notSub == nil {
				notSub = fmt.Errorf("pair (t=%d,v=%d) is not a subscription", t, v)
			}
			count[t]++
		}
		var got int64
		if v < numSel {
			for _, t := range sel.SelectedTopics(workload.SubID(v)) {
				var n int32
				if int(t) >= 0 && int(t) < numT {
					n, count[t] = count[t], 0
				}
				if n != 1 {
					if notOnce == nil {
						notOnce = fmt.Errorf("pair (t=%d,v=%d) placed %d times, want 1", t, v, n)
					}
					continue
				}
				got += w.Rate(t)
			}
		}
		for _, e := range placed {
			t := e.Topic
			n := count[t]
			if n == 0 {
				continue
			}
			count[t] = 0
			if exact {
				unselected++
				continue
			}
			if n > 1 && notOnce == nil {
				notOnce = fmt.Errorf("pair (t=%d,v=%d) placed %d times, want 1", t, v, n)
			}
			got += w.Rate(t)
		}
		if short < 0 && v < numV && got < need {
			short, shortGot, shortNeed = v, got, need
		}
	}
	switch {
	case notSub != nil:
		return notSub
	case notOnce != nil:
		return notOnce
	case unselected != 0:
		return fmt.Errorf("%d placed pairs were never selected", unselected)
	case short >= 0:
		return fmt.Errorf("subscriber %d delivered %d events/h, needs %d", short, shortGot, shortNeed)
	}
	return nil
}

// CheckPlacements checks an allocation's placements against the workload
// they serve: every topic and subscriber in range (checked before anything
// is indexed by it), a topic at most once per VM, and a subscriber at most
// once per placement. Both verifiers run it ahead of their accounting, the
// incremental index before its build, and deploy on a plan's states
// before diffing them and on a state it restores. A nil allocation places
// nothing.
func CheckPlacements(w *workload.Workload, alloc *Allocation) error {
	return checkPlacements(w, alloc, func(*VM) error { return nil })
}

// checkPlacements is CheckPlacements calling each on every VM once its
// placements pass, before the next VM is checked.
func checkPlacements(w *workload.Workload, alloc *Allocation, each func(vm *VM) error) error {
	if alloc == nil {
		return nil
	}
	// onVM[t] is 1 + the index of the last VM found serving topic t;
	// inList[v] the number of the last placement found listing subscriber
	// v, placements counted from 1.
	onVM, inList := make([]int32, w.NumTopics()), make([]int32, w.NumSubscribers())
	list := int32(0)
	for i, vm := range alloc.VMs {
		for _, p := range vm.Placements {
			if int(p.Topic) < 0 || int(p.Topic) >= len(onVM) {
				return fmt.Errorf("vm %d: topic %d outside the workload", vm.ID, p.Topic)
			}
			for _, v := range p.Subs {
				if int(v) < 0 || int(v) >= len(inList) {
					return fmt.Errorf("vm %d: subscriber %d outside the workload", vm.ID, v)
				}
			}
			if onVM[p.Topic] == int32(i+1) {
				return fmt.Errorf("vm %d: topic %d appears in multiple placements", vm.ID, p.Topic)
			}
			onVM[p.Topic] = int32(i + 1)
			list++
			for _, v := range p.Subs {
				if inList[v] == list {
					return fmt.Errorf("vm %d: subscriber %d listed twice for topic %d", vm.ID, v, p.Topic)
				}
				inList[v] = list
			}
		}
		if err := each(vm); err != nil {
			return err
		}
	}
	return nil
}
