package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func incTestWorkload(t testing.TB, seed int64) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 20, Subscribers: 60, MaxFollowings: 5, MaxRate: 80, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func incTestConfig(t testing.TB) Config {
	t.Helper()
	return Config{
		Tau:          40,
		MessageBytes: 1,
		Model:        incTestModel(600),
		Opts:         OptAll,
	}
}

// checkIndexInvariants cross-checks every piece of the incremental state
// against a from-scratch recount: rows versus placements, delivered rates,
// tree frees, the slot table's host lists and the positions their entries
// carry, and the running lower-bound sum.
func checkIndexInvariants(t *testing.T, s *IncrementalState) {
	t.Helper()
	w := s.w
	vms := s.r.alloc.VMs
	delivered := make([]int64, w.NumSubscribers())
	var pairs, placements int64
	for i, vm := range vms {
		var in, out int64
		for _, p := range vm.Placements {
			rb := w.Rate(p.Topic) * s.msg
			in += rb
			out += rb * int64(len(p.Subs))
			placements++
			for _, v := range p.Subs {
				delivered[v] += w.Rate(p.Topic)
				pairs++
				// The pair must appear in v's rows pointing at this slot.
				found := false
				for k, rt := range s.selRows[v] {
					if rt == p.Topic && s.hostRows[v][k] == int32(i) {
						found = true
					}
				}
				if !found {
					t.Fatalf("pair (t=%d, v=%d) on slot %d missing from rows", p.Topic, v, i)
				}
			}
		}
		if in != vm.InBytesPerHour || out != vm.OutBytesPerHour {
			t.Fatalf("slot %d accounting (in=%d, out=%d), recount (in=%d, out=%d)",
				i, vm.InBytesPerHour, vm.OutBytesPerHour, in, out)
		}
		if got := s.r.tree.query(i); got != vm.FreeBytesPerHour() {
			t.Fatalf("slot %d tree free %d, VM free %d", i, got, vm.FreeBytesPerHour())
		}
	}
	if pairs != s.totalPairs {
		t.Fatalf("totalPairs %d, recount %d", s.totalPairs, pairs)
	}
	for v := range delivered {
		if delivered[v] != s.delivered[v] {
			t.Fatalf("subscriber %d delivered %d, recount %d", v, s.delivered[v], delivered[v])
		}
	}
	// Each host entry's position must name its topic's placement on its
	// slot, a topic's slots strictly ascending; as many entries as
	// placements then means every placement has exactly one.
	var entries int64
	for tt, hs := range s.r.hosts {
		for k, h := range hs {
			if k > 0 && hs[k-1].slot >= h.slot {
				t.Fatalf("topic %d host list not strictly ascending: %v", tt, hs)
			}
			if int(h.slot) >= len(vms) || int(h.pi) >= len(vms[h.slot].Placements) ||
				vms[h.slot].Placements[h.pi].Topic != workload.TopicID(tt) {
				t.Fatalf("topic %d host entry %+v does not name its placement on the slot", tt, h)
			}
		}
		entries += int64(len(hs))
	}
	if entries != placements {
		t.Fatalf("%d host entries for %d placements", entries, placements)
	}
	var lb int64
	for v := 0; v < w.NumSubscribers(); v++ {
		lb += s.lbTermOf(workload.SubID(v))
	}
	if lb != s.lbEvents {
		t.Fatalf("lbEvents %d, recount %d", s.lbEvents, lb)
	}
}

// query reads one leaf's stored free capacity out of the segment tree.
func (ft *freeTree) query(i int) int64 { return ft.tree[ft.leafCap+i] }

func incTestModel(capacity int64) pricing.Model {
	m := pricing.NewModel(pricing.C3Large)
	m.CapacityOverrideBytesPerHour = capacity
	return m
}

// TestSnapshotVMAppendDoesNotAlias: the copied subscriber lists share one
// backing array, so an append to one placement of a snapshot must leave
// the next placement and the source VM as they were.
func TestSnapshotVMAppendDoesNotAlias(t *testing.T) {
	src := &VM{ID: 3, Placements: []TopicPlacement{
		{Topic: 0, Subs: []workload.SubID{1, 2}},
		{Topic: 4, Subs: []workload.SubID{5, 6, 7}},
	}}
	snap := SnapshotVM(src, 9)
	snap.Placements[0].Subs = append(snap.Placements[0].Subs, 8)
	if got := snap.Placements[0].Subs; !slices.Equal(got, []workload.SubID{1, 2, 8}) {
		t.Fatalf("appended placement holds %v", got)
	}
	if got := snap.Placements[1].Subs; !slices.Equal(got, []workload.SubID{5, 6, 7}) {
		t.Fatalf("append to placement 0 changed placement 1 to %v", got)
	}
	for i, want := range [][]workload.SubID{{1, 2}, {5, 6, 7}} {
		if got := src.Placements[i].Subs; !slices.Equal(got, want) {
			t.Fatalf("append to the snapshot changed source placement %d to %v", i, got)
		}
	}
	if snap.ID != 9 {
		t.Fatalf("snapshot ID %d, want 9", snap.ID)
	}
}

func TestIndexMirrorsSolvedAllocation(t *testing.T) {
	w := incTestWorkload(t, 1)
	cfg := incTestConfig(t)
	res, err := Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Allocation.Index(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Base() != res.Allocation {
		t.Error("Base() is not the indexed allocation")
	}
	checkIndexInvariants(t, s)
	if s.BaseRegret() < 0 {
		t.Errorf("negative base regret %f", s.BaseRegret())
	}
}

// TestEmptyEpochIsNoOp closes an epoch with no changes at all and demands a
// byte-identical materialization at unchanged cost.
func TestEmptyEpochIsNoOp(t *testing.T) {
	w := incTestWorkload(t, 2)
	cfg := incTestConfig(t)
	res, err := Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Allocation.Index(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginEpoch(context.Background(), w, nil); err != nil {
		t.Fatal(err)
	}
	out, err := s.FinishEpoch(context.Background(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped != 0 || out.Inserted != 0 || out.Improved != 0 {
		t.Errorf("churn on empty epoch: dropped=%d inserted=%d improved=%d",
			out.Dropped, out.Inserted, out.Improved)
	}
	if err := allocationsEqual(out.Result.Allocation, res.Allocation); err != nil {
		t.Errorf("empty epoch changed the allocation: %v", err)
	}
	if got, want := out.Result.Cost(cfg.Model), res.Cost(cfg.Model); got != want {
		t.Errorf("empty epoch changed cost %v → %v", want, got)
	}
	if s.Base() != out.Result.Allocation {
		t.Error("Base() does not advance to the materialized allocation")
	}
}

// TestRehomerPlacePairMaintainsIndex hammers PlacePair/removeSub on a live
// Rehomer and checks the tree and host lists never drift from the VMs.
func TestRehomerEpochChurnKeepsInvariants(t *testing.T) {
	w := incTestWorkload(t, 3)
	cfg := incTestConfig(t)
	res, err := Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Allocation.Index(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cur := w
	for epoch := 0; epoch < 30; epoch++ {
		// Random rate changes on a few topics; every tenth epoch re-rates
		// every topic, as each diurnal epoch does.
		rates := append([]int64(nil), cur.Rates()...)
		rerate := 3
		if epoch%10 == 9 {
			rerate = cur.NumTopics()
		}
		changedSet := make(map[workload.TopicID]bool, rerate)
		for len(changedSet) < rerate {
			tt := workload.TopicID(rng.Intn(cur.NumTopics()))
			if changedSet[tt] {
				continue
			}
			old := rates[tt]
			rates[tt] = old/2 + 1 + rng.Int63n(old+1)
			if rates[tt] != old {
				changedSet[tt] = true
			}
		}
		changed := make([]workload.TopicID, 0, len(changedSet))
		for tt := range changedSet {
			changed = append(changed, tt)
		}
		// Random pair churn: drop one existing interest pair, add one new.
		var drop, add *churnPair
		for tries := 0; tries < 200 && (drop == nil || add == nil); tries++ {
			v := workload.SubID(rng.Intn(cur.NumSubscribers()))
			ts := cur.Topics(v)
			tt := workload.TopicID(rng.Intn(cur.NumTopics()))
			if follows(cur, v, tt) {
				// Only drop when the subscriber keeps ≥ 1 interest, so τ_v
				// stays satisfiable.
				if drop == nil && len(ts) > 1 {
					drop = &churnPair{tt, v}
				}
			} else if add == nil {
				add = &churnPair{tt, v}
			}
		}
		next := mutateWorkload(t, cur, rates, drop, add)
		if err := s.BeginEpoch(context.Background(), next, changed); err != nil {
			t.Fatal(err)
		}
		if drop != nil {
			s.Unsubscribe(drop.t, drop.v)
		}
		if add != nil {
			s.Subscribe(add.t, add.v)
		}
		out, err := s.FinishEpoch(context.Background(), 64)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		checkIndexInvariants(t, s)
		if err := VerifyAllocation(next, out.Result.Selection, out.Result.Allocation, cfg); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		lb, err := LowerBound(next, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.LB != lb {
			t.Fatalf("epoch %d: maintained bound %+v, LowerBound %+v", epoch, out.LB, lb)
		}
		cur = next
	}
}

// churnPair is one (topic, subscriber) pair in the churn tests.
type churnPair struct {
	t workload.TopicID
	v workload.SubID
}

// mutateWorkload rebuilds the workload with the given rates and one pair
// dropped / added (either may be nil).
func mutateWorkload(t *testing.T, w *workload.Workload, rates []int64, drop, add *churnPair) *workload.Workload {
	t.Helper()
	subOff := make([]int64, 1, w.NumSubscribers()+1)
	var subTopics []workload.TopicID
	for v := 0; v < w.NumSubscribers(); v++ {
		for _, tt := range w.Topics(workload.SubID(v)) {
			if drop != nil && drop.v == workload.SubID(v) && drop.t == tt {
				continue
			}
			subTopics = append(subTopics, tt)
		}
		if add != nil && add.v == workload.SubID(v) {
			row := subTopics[subOff[v]:]
			subTopics = append(subTopics[:subOff[v]], mergeRowT(row, add.t)...)
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	nw, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// mergeRowT inserts t into the sorted row.
func mergeRowT(row []workload.TopicID, t workload.TopicID) []workload.TopicID {
	out := make([]workload.TopicID, 0, len(row)+1)
	done := false
	for _, x := range row {
		if !done && t < x {
			out = append(out, t)
			done = true
		}
		out = append(out, x)
	}
	if !done {
		out = append(out, t)
	}
	return out
}

// follows is a tiny local helper (the elastic package has its own copy).
func follows(w *workload.Workload, v workload.SubID, t workload.TopicID) bool {
	for _, x := range w.Topics(v) {
		if x == t {
			return true
		}
	}
	return false
}

func TestFreeTreeShrink(t *testing.T) {
	var ft freeTree
	for i := 0; i < 10; i++ {
		ft.add(int64(i + 1))
	}
	ft.shrink(4)
	if f, i := ft.maxFree(); i != 3 || f != 4 {
		t.Errorf("after shrink(4): maxFree = (%d, %d), want (4, 3)", f, i)
	}
	if got := ft.firstAtLeast(5); got != -1 {
		t.Errorf("firstAtLeast(5) = %d after shrink, want -1", got)
	}
	ft.add(100)
	if f, i := ft.maxFree(); i != 4 || f != 100 {
		t.Errorf("after re-add: maxFree = (%d, %d), want (100, 4)", f, i)
	}
}

// TestDrainReleasesVMsAfterRemovalHeavyEpoch pins the drain pass: an epoch
// that unsubscribes a large fraction of pairs scattered across the fleet
// must consolidate the stranded free capacity and release VMs — without
// the drain, rental cost only falls when a VM empties by chance, and the
// epoch's regret drifts by roughly its removed-pair fraction.
func TestDrainReleasesVMsAfterRemovalHeavyEpoch(t *testing.T) {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 40, Subscribers: 300, MaxFollowings: 6, MaxRate: 80, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := incTestConfig(t)
	// τ above any demand: every interest is selected and placed, so each
	// drop frees capacity outright instead of being refilled by the τ_v
	// top-up picking a replacement interest.
	cfg.Tau = 1 << 40
	res, err := Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vmsBefore := res.Allocation.NumVMs()
	costBefore := res.Allocation.Cost(cfg.Model)
	s, err := res.Allocation.Index(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Drop every interest but the first of every subscriber with ≥ 2 —
	// removals spread across the whole fleet, no VM emptied outright.
	rng := rand.New(rand.NewSource(5))
	var drops []churnPair
	subOff := make([]int64, 1, w.NumSubscribers()+1)
	var subTopics []workload.TopicID
	for v := 0; v < w.NumSubscribers(); v++ {
		for i, tt := range w.Topics(workload.SubID(v)) {
			if i > 0 && rng.Intn(10) < 6 {
				drops = append(drops, churnPair{tt, workload.SubID(v)})
				continue
			}
			subTopics = append(subTopics, tt)
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	next, err := workload.FromCSR(append([]int64(nil), w.Rates()...), subOff, subTopics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(drops) < w.NumSubscribers() {
		t.Fatalf("generator produced only %d drops", len(drops))
	}

	if err := s.BeginEpoch(context.Background(), next, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range drops {
		s.Unsubscribe(d.t, d.v)
	}
	out, err := s.FinishEpoch(context.Background(), 64+4*int64(len(drops)))
	if err != nil {
		t.Fatal(err)
	}
	checkIndexInvariants(t, s)
	if err := VerifyAllocation(next, out.Result.Selection, out.Result.Allocation, cfg); err != nil {
		t.Fatal(err)
	}
	if got := out.Result.Allocation.NumVMs(); got >= vmsBefore {
		t.Fatalf("removal-heavy epoch kept %d VMs (was %d): drain released nothing", got, vmsBefore)
	}
	if got := out.Result.Allocation.Cost(cfg.Model); got >= costBefore {
		t.Fatalf("removal-heavy epoch cost %d ≥ pre-epoch %d", got, costBefore)
	}
	if out.Regret > out.BaseRegret+0.25 {
		t.Fatalf("regret %.4f drifted far above base %.4f despite drain", out.Regret, out.BaseRegret)
	}
}

// TestEvictOverfullBeyondTouchedPairs: a slot can enter an epoch above its
// recorded capacity — the elastic keep path validates allocations against
// the true fleet while recording headroom-derated capacities — so after a
// small re-rate on it, evicting every pair of the re-rated topic may not
// be enough. The pass must then evict the slot's newest untouched
// placement too, instead of failing the epoch.
func TestEvictOverfullBeyondTouchedPairs(t *testing.T) {
	// Topic 0 (rate 2) serves subscriber 0 and topic 1 (rate 20)
	// subscribers 1–5, both on slot 0; topic 2 (rate 5) serves subscriber
	// 6 alone on slot 1.
	w := mustWorkload(t, []int64{2, 20, 5}, [][]workload.TopicID{{0}, {1}, {1}, {1}, {1}, {1}, {2}})
	cfg := incTestConfig(t)
	cfg.Model = incTestModel(100)
	fleet := cfg.EffectiveFleet()
	alloc := &Allocation{
		VMs: []*VM{
			{
				ID: 0, Instance: fleet.Type(0), CapacityBytesPerHour: 100,
				Placements: []TopicPlacement{
					{Topic: 0, Subs: []workload.SubID{0}},
					{Topic: 1, Subs: []workload.SubID{1, 2, 3, 4, 5}},
				},
				InBytesPerHour: 2 + 20, OutBytesPerHour: 2 + 5*20, // 124: 24 over
			},
			{
				ID: 1, Instance: fleet.Type(0), CapacityBytesPerHour: 100,
				Placements:     []TopicPlacement{{Topic: 2, Subs: []workload.SubID{6}}},
				InBytesPerHour: 5, OutBytesPerHour: 5,
			},
		},
		Fleet:        fleet,
		MessageBytes: 1,
	}
	s, err := alloc.Index(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Re-rate topic 0 from 2 to 3: slot 0 grows to 126, and evicting its
	// one topic-0 pair only brings it down to 120.
	next := mutateWorkload(t, w, []int64{3, 20, 5}, nil, nil)
	if err := s.BeginEpoch(context.Background(), next, []workload.TopicID{0}); err != nil {
		t.Fatal(err)
	}
	out, err := s.FinishEpoch(context.Background(), 0)
	if err != nil {
		t.Fatalf("FinishEpoch: %v", err)
	}
	if out.Evicted != 2 {
		t.Errorf("evicted %d pairs, want 2 (topic 0's pair, then topic 1's newest)", out.Evicted)
	}
	checkIndexInvariants(t, s)
	for i, vm := range out.Result.Allocation.VMs {
		if vm.FreeBytesPerHour() < 0 {
			t.Errorf("slot %d still %d over its recorded capacity", i, -vm.FreeBytesPerHour())
		}
	}
	if err := VerifyServes(next, out.Result.Allocation, cfg); err != nil {
		t.Fatal(err)
	}
}
