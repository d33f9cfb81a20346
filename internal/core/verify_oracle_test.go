package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// verifyAllocationMap is VerifyAllocation as it was written first, over a
// hash map of placed pairs, with the range checks added since: the oracle
// the map-free version must match error for error. Two rules came later
// and sit where the one pass reports them: a subscriber listed twice in a
// placement (after the topic-once check) and a pair that is not a
// subscription (the first by subscriber, then topic order; after the
// pair-instance count).
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
	notSub := pairKey{v: -1}

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
			if v, ok := repeatedSub(p.Subs); ok {
				return fmt.Errorf("vm %d: subscriber %d listed twice for topic %d", vm.ID, v, p.Topic)
			}
			rb := w.Rate(p.Topic) * cfg.MessageBytes
			in += rb
			out += rb * int64(len(p.Subs))
			for _, v := range p.Subs {
				if !subscribes(w, v, p.Topic) && (notSub.v < 0 || v < notSub.v || v == notSub.v && p.Topic < notSub.t) {
					notSub = pairKey{p.Topic, v}
				}
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
		if vm.BytesPerHour() > cap {
			return fmt.Errorf("vm %d (%s): bandwidth %d exceeds capacity %d",
				vm.ID, vm.Instance.Name, vm.BytesPerHour(), cap)
		}
	}

	if totalPlaced != sel.NumPairs() {
		return fmt.Errorf("placed %d pair instances, selection has %d pairs", totalPlaced, sel.NumPairs())
	}
	if notSub.v >= 0 {
		return fmt.Errorf("pair (t=%d,v=%d) is not a subscription", notSub.t, notSub.v)
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

// verifyServesMap is VerifyServes as it was before the one pass, over a
// hash map of placed pairs and a topic map per VM. Its edits: the range
// checks come first in a placement; a subscriber listed twice in a
// placement fails after the topic-once check; the "not a subscription"
// check moved from the VM loop to after it, reporting the first such pair
// by subscriber, then topic order; and a pair placed more than once
// fails after it, the first by subscriber, then topic order.
func verifyServesMap(w *workload.Workload, alloc *Allocation, cfg Config) error {
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
	seenPairs := make(map[pairKey]int)
	notSub := pairKey{v: -1}
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
			if v, ok := repeatedSub(p.Subs); ok {
				return fmt.Errorf("vm %d: subscriber %d listed twice for topic %d", vm.ID, v, p.Topic)
			}
			rb := w.Rate(p.Topic) * cfg.MessageBytes
			in += rb
			out += rb * int64(len(p.Subs))
			for _, v := range p.Subs {
				if !subscribes(w, v, p.Topic) && (notSub.v < 0 || v < notSub.v || v == notSub.v && p.Topic < notSub.t) {
					notSub = pairKey{p.Topic, v}
				}
				k := pairKey{p.Topic, v}
				if seenPairs[k] == 0 {
					delivered[v] += w.Rate(p.Topic)
				}
				seenPairs[k]++
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
		if vm.BytesPerHour() > cap {
			return fmt.Errorf("vm %d (%s): bandwidth %d exceeds capacity %d",
				vm.ID, vm.Instance.Name, vm.BytesPerHour(), cap)
		}
	}
	if notSub.v >= 0 {
		return fmt.Errorf("pair (t=%d,v=%d) is not a subscription", notSub.t, notSub.v)
	}
	twice := pairKey{v: -1}
	for _, vm := range alloc.VMs {
		for _, p := range vm.Placements {
			for _, v := range p.Subs {
				if k := (pairKey{p.Topic, v}); seenPairs[k] > 1 && (twice.v < 0 || v < twice.v || v == twice.v && p.Topic < twice.t) {
					twice = k
				}
			}
		}
	}
	if twice.v >= 0 {
		return fmt.Errorf("pair (t=%d,v=%d) placed %d times, want 1", twice.t, twice.v, seenPairs[twice])
	}
	for v := 0; v < w.NumSubscribers(); v++ {
		tauV := w.TauV(workload.SubID(v), cfg.Tau)
		if delivered[v] < tauV {
			return fmt.Errorf("subscriber %d delivered %d events/h, needs %d", v, delivered[v], tauV)
		}
	}
	return nil
}

// repeatedSub returns the first subscriber subs lists a second time.
func repeatedSub(subs []workload.SubID) (workload.SubID, bool) {
	seen := make(map[workload.SubID]bool, len(subs))
	for _, v := range subs {
		if seen[v] {
			return v, true
		}
		seen[v] = true
	}
	return 0, false
}

// subscribes reports whether v follows topic t.
func subscribes(w *workload.Workload, v workload.SubID, t workload.TopicID) bool {
	_, ok := slices.BinarySearch(w.Topics(v), t)
	return ok
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

// nonSubscription returns a pair of the workload's topics and subscribers
// that is not one of its subscriptions.
func nonSubscription(rng *rand.Rand, w *workload.Workload) (workload.Pair, bool) {
	for range 64 {
		v := workload.SubID(rng.Intn(w.NumSubscribers()))
		if t := workload.TopicID(rng.Intn(w.NumTopics())); !subscribes(w, v, t) {
			return workload.Pair{Topic: t, Sub: v}, true
		}
	}
	return workload.Pair{}, false
}

// selectionListing returns sel with p appended to its subscriber's row,
// built directly so that nothing checks p is a subscription.
func selectionListing(sel *Selection, p workload.Pair) *Selection {
	off := slices.Clone(sel.subOff)
	for v := int(p.Sub) + 1; v < len(off); v++ {
		off[v]++
	}
	topics := slices.Insert(slices.Clone(sel.subTopics), int(sel.subOff[p.Sub+1]), p.Topic)
	return &Selection{w: sel.w, subOff: off, subTopics: topics}
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
	{"pair not a subscription", func(rng *rand.Rand, c *verifyCase) bool {
		pr, ok := nonSubscription(rng, c.w)
		if !ok || len(c.alloc.VMs) == 0 {
			return false
		}
		place(c.alloc.VMs[rng.Intn(len(c.alloc.VMs))], pr.Topic, pr.Sub)
		c.sel = selectionListing(c.sel, pr)
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
	reached := newReached("outside the workload", "appears in multiple placements", "listed twice for topic", "accounted bw",
		"does not match fleet capacity", "exceeds capacity", "pair instances", "is not a subscription", "times, want 1",
		"never selected", "events/h, needs")
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
		res, err := SolveContext(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := verifyCase{w: w, sel: res.Selection, alloc: res.Allocation, cfg: cfg}
		for _, sel := range []*Selection{res.Selection, reversedRows(res.Selection)} {
			base.sel = sel
			if got := compare(t, fmt.Sprintf("seed %d solved", seed), base); got != "<nil>" {
				t.Fatalf("seed %d: solved allocation fails: %s", seed, got)
			}
			corruptAndCompare(t, rng, fmt.Sprintf("seed %d", seed), base, reached, compare)
		}
	}
	reached.check(t)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// reachedChecks records which checks, each named by a fragment of its
// error text, some case failed.
type reachedChecks map[string]bool

func newReached(fragments ...string) reachedChecks {
	r := make(reachedChecks, len(fragments))
	for _, f := range fragments {
		r[f] = false
	}
	return r
}

func (r reachedChecks) note(got string) {
	for f := range r {
		if strings.Contains(got, f) {
			r[f] = true
		}
	}
}

func (r reachedChecks) check(t *testing.T) {
	t.Helper()
	for f, ok := range r {
		if !ok {
			t.Errorf("no case failed the %q check", f)
		}
	}
}

// corruptAndCompare runs compare on c, on every corruption of c alone
// (with and without repaired accounting) and on four random combinations,
// noting which checks fail.
func corruptAndCompare(t *testing.T, rng *rand.Rand, label string, c verifyCase, reached reachedChecks,
	compare func(t *testing.T, label string, c verifyCase) string) {
	t.Helper()
	for _, k := range verifyCorruptions {
		for _, fix := range []bool{false, true} {
			cc := c.clone()
			if !k.fn(rng, &cc) {
				continue
			}
			if fix {
				cc.reaccount()
			}
			reached.note(compare(t, fmt.Sprintf("%s %s (reaccounted %v)", label, k.name, fix), cc))
		}
	}
	for range 4 {
		cc := c.clone()
		var names []string
		for range 1 + rng.Intn(3) {
			k := verifyCorruptions[rng.Intn(len(verifyCorruptions))]
			if k.fn(rng, &cc) {
				names = append(names, k.name)
			}
		}
		cc.reaccount()
		reached.note(compare(t, fmt.Sprintf("%s %v", label, names), cc))
	}
}

// namedCase is a verifyCase with a name for failure messages.
type namedCase struct {
	name string
	c    verifyCase
}

// servesCases builds valid allocations for VerifyServes, named: a solved
// one; ones that drift from their selection, through incremental epochs,
// Rehomer.TopUp under a raised τ, and Rehomer.RehomeGroup after dropping
// VMs; and one packed against a headroom-derated fleet, checked against
// the true fleet and, with a zero cfg.Fleet, against the fleet the
// allocation records: its own, or the true one.
func servesCases(t *testing.T, rng *rand.Rand) []namedCase {
	t.Helper()
	var cases []namedCase
	w := randomCoreWorkload(rng)
	var maxRate int64
	for tid := 0; tid < w.NumTopics(); tid++ {
		maxRate = max(maxRate, w.Rate(workload.TopicID(tid)))
	}
	cfg := configWith(1+rng.Int63n(300), 2*maxRate+rng.Int63n(2000), nil, OptAll)
	res, err := SolveContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	solved := verifyCase{w: w, sel: res.Selection, alloc: res.Allocation, cfg: cfg}
	cases = append(cases, namedCase{"solved", solved})

	// Top-up: raise τ and home each subscriber's shortfall.
	up := solved.clone()
	up.cfg.Tau += 1 + rng.Int63n(300)
	r := NewRehomer(up.alloc, up.cfg.EffectiveFleet())
	rows := up.alloc.PairRows(w.NumTopics(), w.NumSubscribers())
	for v := range w.NumSubscribers() {
		var row []workload.TopicID
		for _, e := range rows.Row(workload.SubID(v)) {
			row = append(row, e.Topic)
		}
		var got int64
		for _, tt := range row {
			got += w.Rate(tt)
		}
		if need := w.TauV(workload.SubID(v), up.cfg.Tau) - got; need > 0 {
			if err := r.TopUp(w, workload.SubID(v), row, need, func(workload.TopicID, int32) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases = append(cases, namedCase{"topped up", up})

	// Crash repair: drop some VMs and re-home their placements.
	re := solved.clone()
	drop := 1 + rng.Intn(len(re.alloc.VMs))
	failed := re.alloc.VMs[:drop]
	re.alloc.VMs = slices.Clone(re.alloc.VMs[drop:])
	r = NewRehomer(re.alloc, re.alloc.Fleet)
	for _, f := range failed {
		for _, p := range f.Placements {
			if _, err := r.RehomeGroup(p.Topic, w.Rate(p.Topic)*cfg.MessageBytes, p.Subs, f.Instance, f.CapacityBytesPerHour); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases = append(cases, namedCase{"rehomed", re})

	// Incremental epochs: rates, one dropped and one added interest each.
	iw := incTestWorkload(t, rng.Int63())
	icfg := incTestConfig(t)
	ires, err := SolveContext(context.Background(), iw, icfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ires.Allocation.Index(iw, icfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for epoch := range 3 {
		rates := slices.Clone(iw.Rates())
		var changed []workload.TopicID
		for range 3 {
			tt := workload.TopicID(rng.Intn(iw.NumTopics()))
			if rate := rates[tt]/2 + 1 + rng.Int63n(rates[tt]+1); rate != rates[tt] && !slices.Contains(changed, tt) {
				rates[tt] = rate
				changed = append(changed, tt)
			}
		}
		v := workload.SubID(rng.Intn(iw.NumSubscribers()))
		var dropPair, addPair *churnPair
		if ts := iw.Topics(v); len(ts) > 1 {
			dropPair = &churnPair{ts[rng.Intn(len(ts))], v}
		}
		if tt := workload.TopicID(rng.Intn(iw.NumTopics())); !follows(iw, v, tt) {
			addPair = &churnPair{tt, v}
		}
		next := mutateWorkload(t, iw, rates, dropPair, addPair)
		if err := s.BeginEpoch(ctx, next, changed); err != nil {
			t.Fatal(err)
		}
		if dropPair != nil {
			s.Unsubscribe(dropPair.t, dropPair.v)
		}
		if addPair != nil {
			s.Subscribe(addPair.t, addPair.v)
		}
		out, err := s.FinishEpoch(ctx, 64)
		if err != nil {
			t.Fatal(err)
		}
		c := verifyCase{w: next, sel: out.Result.Selection, alloc: out.Result.Allocation, cfg: icfg}.clone()
		cases = append(cases, namedCase{fmt.Sprintf("epoch %d", epoch), c})
		iw = next
	}

	// Headroom: pack against derated capacities.
	f := testFleet(t, maxRate+rng.Int63n(200))
	dcfg := fleetConfig(1+rng.Int63n(300), f.WithCapacityScale(0.8), nil, OptAll)
	dres, err := SolveContext(context.Background(), w, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	derated := verifyCase{w: w, sel: dres.Selection, alloc: dres.Allocation, cfg: dcfg}
	derated.cfg.Fleet = f
	cases = append(cases, namedCase{"derated, true fleet", derated})
	derated.cfg.Fleet = pricing.Fleet{}
	cases = append(cases, namedCase{"derated, own fleet", derated})
	derated = derated.clone()
	derated.alloc.Fleet = f
	cases = append(cases, namedCase{"derated, true fleet recorded", derated})
	return cases
}

// TestVerifyServesMatchesMapOracle compares VerifyServes' error text with
// the map-based oracle's over solved allocations, allocations that drift
// from their selection, and headroom-derated ones, each alone and under
// the targeted corruptions, alone and combined.
func TestVerifyServesMatchesMapOracle(t *testing.T) {
	compare := func(t *testing.T, label string, c verifyCase) string {
		t.Helper()
		got, want := errText(VerifyServes(c.w, c.alloc, c.cfg)), errText(verifyServesMap(c.w, c.alloc, c.cfg))
		if got != want {
			t.Fatalf("%s: VerifyServes says %q, map oracle %q", label, got, want)
		}
		return got
	}
	reached := newReached("outside the workload", "appears in multiple placements", "listed twice for topic", "accounted bw",
		"exceeds capacity", "is not a subscription", "times, want 1", "events/h, needs")
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(9400 + seed))
		for _, nc := range servesCases(t, rng) {
			label := fmt.Sprintf("seed %d %s", seed, nc.name)
			if got := compare(t, label, nc.c); got != "<nil>" {
				t.Fatalf("%s: valid allocation fails: %s", label, got)
			}
			corruptAndCompare(t, rng, label, nc.c, reached, compare)
		}
	}
	reached.check(t)
}
