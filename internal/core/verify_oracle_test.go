package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// verifyAllocationMap is VerifyAllocation as it was written first, over a
// hash map of placed pairs, with the range checks added since: the oracle
// the map-free version must match error for error.
func verifyAllocationMap(w *workload.Workload, sel *Selection, alloc *Allocation, cfg Config) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	fleet := cfg.EffectiveFleet()

	// Delivered rate per subscriber from distinct (t,v) placements.
	delivered := make([]int64, w.NumSubscribers())
	type pairKey struct {
		t workload.TopicID
		v workload.SubID
	}
	placedPairs := make(map[pairKey]int, sel.NumPairs())
	var totalPlaced int64

	for _, vm := range alloc.VMs {
		var out, in int64
		seenTopics := make(map[workload.TopicID]bool, len(vm.Placements))
		for _, p := range vm.Placements {
			if int(p.Topic) < 0 || int(p.Topic) >= w.NumTopics() {
				return fmt.Errorf("vm %d: topic %d outside the workload", vm.ID, p.Topic)
			}
			for _, v := range p.Subs {
				if int(v) < 0 || int(v) >= w.NumSubscribers() {
					return fmt.Errorf("vm %d: subscriber %d outside the workload", vm.ID, v)
				}
			}
			if seenTopics[p.Topic] {
				return fmt.Errorf("vm %d: topic %d appears in multiple placements", vm.ID, p.Topic)
			}
			seenTopics[p.Topic] = true
			rb := w.Rate(p.Topic) * cfg.MessageBytes
			in += rb
			out += rb * int64(len(p.Subs))
			for _, v := range p.Subs {
				k := pairKey{p.Topic, v}
				if placedPairs[k] == 0 {
					delivered[v] += w.Rate(p.Topic)
				}
				placedPairs[k]++
				totalPlaced++
			}
		}
		if out != vm.OutBytesPerHour || in != vm.InBytesPerHour {
			return fmt.Errorf("vm %d: accounted bw (out=%d,in=%d) != recomputed (out=%d,in=%d)",
				vm.ID, vm.OutBytesPerHour, vm.InBytesPerHour, out, in)
		}
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
	var bad error
	sel.Pairs(func(p workload.Pair) bool {
		k := pairKey{p.Topic, p.Sub}
		if placedPairs[k] != 1 {
			bad = fmt.Errorf("pair (t=%d,v=%d) placed %d times, want 1", p.Topic, p.Sub, placedPairs[k])
			return false
		}
		delete(placedPairs, k)
		return true
	})
	if bad != nil {
		return bad
	}
	if len(placedPairs) != 0 {
		return fmt.Errorf("%d placed pairs were never selected", len(placedPairs))
	}

	for v := 0; v < w.NumSubscribers(); v++ {
		tauV := w.TauV(workload.SubID(v), cfg.Tau)
		if delivered[v] < tauV {
			return fmt.Errorf("subscriber %d delivered %d events/h, needs %d", v, delivered[v], tauV)
		}
	}
	return nil
}

// verifyCase is one input to both verifiers.
type verifyCase struct {
	w     *workload.Workload
	sel   *Selection
	alloc *Allocation
	cfg   Config
}

func (c verifyCase) clone() verifyCase {
	a := &Allocation{MessageBytes: c.alloc.MessageBytes, Fleet: c.alloc.Fleet}
	for _, vm := range c.alloc.VMs {
		cp := *vm
		cp.Placements = make([]TopicPlacement, len(vm.Placements))
		for i, p := range vm.Placements {
			cp.Placements[i] = TopicPlacement{Topic: p.Topic, Subs: slices.Clone(p.Subs)}
		}
		a.VMs = append(a.VMs, &cp)
	}
	c.alloc = a
	return c
}

// reaccount recomputes every VM's bandwidth accounting from its
// placements, so a corruption reaches the checks after accounting.
func (c verifyCase) reaccount() {
	for _, vm := range c.alloc.VMs {
		vm.InBytesPerHour, vm.OutBytesPerHour = 0, 0
		for _, p := range vm.Placements {
			if int(p.Topic) >= c.w.NumTopics() {
				continue // no rate; the range check fails first
			}
			rb := c.w.Rate(p.Topic) * c.cfg.MessageBytes
			vm.InBytesPerHour += rb
			vm.OutBytesPerHour += rb * int64(len(p.Subs))
		}
	}
}

// place adds pair (t, v) to vm, in its placement of t when it has one.
func place(vm *VM, t workload.TopicID, v workload.SubID) {
	for i := range vm.Placements {
		if vm.Placements[i].Topic == t {
			vm.Placements[i].Subs = append(vm.Placements[i].Subs, v)
			return
		}
	}
	vm.Placements = append(vm.Placements, TopicPlacement{Topic: t, Subs: []workload.SubID{v}})
}

// placedAt returns a random placed pair as (vm, placement, sub) indices,
// or ok=false when nothing is placed.
func placedAt(rng *rand.Rand, a *Allocation) (vi, pi, si int, ok bool) {
	for range 64 {
		if len(a.VMs) == 0 {
			return 0, 0, 0, false
		}
		vi = rng.Intn(len(a.VMs))
		if len(a.VMs[vi].Placements) == 0 {
			continue
		}
		pi = rng.Intn(len(a.VMs[vi].Placements))
		if n := len(a.VMs[vi].Placements[pi].Subs); n > 0 {
			return vi, pi, rng.Intn(n), true
		}
	}
	return 0, 0, 0, false
}

// unselectedPair returns a pair of the workload the selection left out.
func unselectedPair(rng *rand.Rand, c verifyCase) (workload.Pair, bool) {
	n := c.w.NumSubscribers()
	for range 64 {
		v := workload.SubID(rng.Intn(n))
		for _, t := range c.w.Topics(v) {
			if !slices.Contains(c.sel.SelectedTopics(v), t) {
				return workload.Pair{Topic: t, Sub: v}, true
			}
		}
	}
	return workload.Pair{}, false
}

// verifyCorruptions are the targeted corruptions, each applied to a fresh
// copy of a valid case. A corruption reports false when the case offers
// nothing to corrupt.
var verifyCorruptions = []struct {
	name string
	fn   func(rng *rand.Rand, c *verifyCase) bool
}{
	{"pair twice in one placement", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if ok {
			p := &c.alloc.VMs[vi].Placements[pi]
			p.Subs = append(p.Subs, p.Subs[si])
		}
		return ok
	}},
	{"pair on two vms", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if !ok || len(c.alloc.VMs) < 2 {
			return false
		}
		p := c.alloc.VMs[vi].Placements[pi]
		place(c.alloc.VMs[(vi+1+rng.Intn(len(c.alloc.VMs)-1))%len(c.alloc.VMs)], p.Topic, p.Subs[si])
		return true
	}},
	{"unselected pair", func(rng *rand.Rand, c *verifyCase) bool {
		pr, ok := unselectedPair(rng, *c)
		if ok && len(c.alloc.VMs) > 0 {
			place(c.alloc.VMs[rng.Intn(len(c.alloc.VMs))], pr.Topic, pr.Sub)
		}
		return ok && len(c.alloc.VMs) > 0
	}},
	{"missing pair", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if ok {
			p := &c.alloc.VMs[vi].Placements[pi]
			p.Subs = slices.Delete(p.Subs, si, si+1)
		}
		return ok
	}},
	{"bad accounting", func(rng *rand.Rand, c *verifyCase) bool {
		if len(c.alloc.VMs) == 0 {
			return false
		}
		c.alloc.VMs[rng.Intn(len(c.alloc.VMs))].OutBytesPerHour++
		return true
	}},
	{"capacity mismatch", func(rng *rand.Rand, c *verifyCase) bool {
		if len(c.alloc.VMs) == 0 {
			return false
		}
		c.alloc.VMs[rng.Intn(len(c.alloc.VMs))].CapacityBytesPerHour += 7
		return true
	}},
	{"over capacity", func(rng *rand.Rand, c *verifyCase) bool {
		if len(c.alloc.VMs) == 0 {
			return false
		}
		vm := c.alloc.VMs[rng.Intn(len(c.alloc.VMs))]
		vm.Instance.Name = "unlisted"
		vm.CapacityBytesPerHour = max(1, vm.BytesPerHour()-1)
		return vm.BytesPerHour() > 1
	}},
	{"tau shortfall", func(rng *rand.Rand, c *verifyCase) bool {
		c.cfg.Tau = 2*c.cfg.Tau + rng.Int63n(500)
		return true
	}},
	{"topic twice on a vm", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if ok {
			vm := c.alloc.VMs[vi]
			p := vm.Placements[pi]
			vm.Placements = append(vm.Placements, TopicPlacement{Topic: p.Topic, Subs: []workload.SubID{p.Subs[si]}})
		}
		return ok
	}},
	{"one pair missing, another twice", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if !ok {
			return false
		}
		p := &c.alloc.VMs[vi].Placements[pi]
		p.Subs = slices.Delete(p.Subs, si, si+1)
		if vi, pi, si, ok = placedAt(rng, c.alloc); ok {
			q := c.alloc.VMs[vi].Placements[pi]
			place(c.alloc.VMs[rng.Intn(len(c.alloc.VMs))], q.Topic, q.Subs[si])
		}
		return ok
	}},
	{"pair dropped from placement and selection", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if !ok {
			return false
		}
		p := &c.alloc.VMs[vi].Placements[pi]
		drop := workload.Pair{Topic: p.Topic, Sub: p.Subs[si]}
		p.Subs = slices.Delete(p.Subs, si, si+1)
		var pairs []workload.Pair
		c.sel.Pairs(func(q workload.Pair) bool {
			if q != drop {
				pairs = append(pairs, q)
			}
			return true
		})
		sel, err := SelectionFromPairs(c.w, pairs)
		if err != nil {
			panic(err)
		}
		c.sel = sel
		return true
	}},
	{"topic outside the workload", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if ok {
			vm := c.alloc.VMs[vi]
			v := vm.Placements[pi].Subs[si]
			vm.Placements = append(vm.Placements, TopicPlacement{Topic: workload.TopicID(c.w.NumTopics() + 5), Subs: []workload.SubID{v}})
		}
		return ok
	}},
	{"subscriber outside the workload", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if ok {
			c.alloc.VMs[vi].Placements[pi].Subs[si] = workload.SubID(c.w.NumSubscribers() + 3)
		}
		return ok
	}},
	{"negative subscriber", func(rng *rand.Rand, c *verifyCase) bool {
		vi, pi, si, ok := placedAt(rng, c.alloc)
		if ok {
			c.alloc.VMs[vi].Placements[pi].Subs[si] = -2
		}
		return ok
	}},
	{"selection counting a pair its rows miss", func(rng *rand.Rand, c *verifyCase) bool {
		pr, ok := unselectedPair(rng, *c)
		if !ok || len(c.alloc.VMs) == 0 {
			return false
		}
		place(c.alloc.VMs[rng.Intn(len(c.alloc.VMs))], pr.Topic, pr.Sub)
		c.sel = &Selection{w: c.w, subOff: c.sel.subOff, subTopics: append(slices.Clone(c.sel.subTopics), pr.Topic)}
		return true
	}},
}

// reversedRows returns sel with every subscriber's row in descending
// topic order: the map-free verifier must not depend on row order.
func reversedRows(sel *Selection) *Selection {
	topics := slices.Clone(sel.subTopics)
	for v := 0; v+1 < len(sel.subOff); v++ {
		slices.Reverse(topics[sel.subOff[v]:sel.subOff[v+1]])
	}
	return &Selection{w: sel.w, subOff: sel.subOff, subTopics: topics}
}

// TestVerifyAllocationMatchesMapOracle compares VerifyAllocation's error
// text with the map-based oracle's over solved allocations and targeted
// corruptions of them, alone, in random combinations, with and without
// repaired accounting, and with selection rows in either order.
func TestVerifyAllocationMatchesMapOracle(t *testing.T) {
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	compare := func(t *testing.T, label string, c verifyCase) string {
		t.Helper()
		got, want := errText(VerifyAllocation(c.w, c.sel, c.alloc, c.cfg)), errText(verifyAllocationMap(c.w, c.sel, c.alloc, c.cfg))
		if got != want {
			t.Fatalf("%s: VerifyAllocation says %q, map oracle %q", label, got, want)
		}
		return got
	}
	// Every check must be reached: one error-text fragment per check.
	// The range checks are two: topic and subscriber.
	checks := []string{"outside the workload", "appears in multiple placements", "accounted bw", "does not match fleet capacity",
		"exceeds capacity", "pair instances", "times, want 1", "never selected", "events/h, needs"}
	reached := make(map[string]bool)
	note := func(got string) {
		for _, c := range checks {
			if strings.Contains(got, c) {
				reached[c] = true
			}
		}
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(9100 + seed))
		w := randomCoreWorkload(rng)
		var maxRate int64
		for tid := 0; tid < w.NumTopics(); tid++ {
			maxRate = max(maxRate, w.Rate(workload.TopicID(tid)))
		}
		cfg := configWith(1+rng.Int63n(300), 2*maxRate+rng.Int63n(2000), nil, OptAll)
		if seed%3 == 1 {
			cfg.Stage2 = FFBinPackingContext
		}
		res, err := Solve(w, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := verifyCase{w: w, sel: res.Selection, alloc: res.Allocation, cfg: cfg}
		for _, sel := range []*Selection{res.Selection, reversedRows(res.Selection)} {
			base.sel = sel
			if got := compare(t, fmt.Sprintf("seed %d solved", seed), base); got != "<nil>" {
				t.Fatalf("seed %d: solved allocation fails: %s", seed, got)
			}
			for _, k := range verifyCorruptions {
				for _, fix := range []bool{false, true} {
					c := base.clone()
					if !k.fn(rng, &c) {
						continue
					}
					if fix {
						c.reaccount()
					}
					note(compare(t, fmt.Sprintf("seed %d %s (reaccounted %v)", seed, k.name, fix), c))
				}
			}
			for range 4 {
				c := base.clone()
				var names []string
				for range 1 + rng.Intn(3) {
					k := verifyCorruptions[rng.Intn(len(verifyCorruptions))]
					if k.fn(rng, &c) {
						names = append(names, k.name)
					}
				}
				c.reaccount()
				note(compare(t, fmt.Sprintf("seed %d %v", seed, names), c))
			}
		}
	}
	for _, c := range checks {
		if !reached[c] {
			t.Errorf("no case failed the %q check", c)
		}
	}
}
