package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// randomRowsAllocation draws an allocation over topics [0, numT) and
// subscribers [0, numV) with the shapes the pair-row view must group:
// nil and empty allocations, VMs with no placements, pairs on two slots,
// a subscriber listed twice in one placement and a topic twice on a VM.
func randomRowsAllocation(rng *rand.Rand, numT, numV int) *Allocation {
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return &Allocation{}
	}
	a := &Allocation{}
	for i := rng.Intn(6); i >= 0; i-- {
		vm := &VM{}
		topics := rng.Perm(numT)[:rng.Intn(min(numT, 5)+1)]
		if len(topics) > 0 && rng.Intn(8) == 0 {
			topics = append(topics, topics[0])
		}
		for _, t := range topics {
			subs := make([]workload.SubID, rng.Intn(6))
			for k := range subs {
				subs[k] = workload.SubID(rng.Intn(numV))
			}
			vm.Placements = append(vm.Placements, TopicPlacement{Topic: workload.TopicID(t), Subs: subs})
		}
		a.VMs = append(a.VMs, vm)
	}
	return a
}

// pairTriple is one placed pair instance: subscriber, topic, hosting slot.
type pairTriple struct {
	v    workload.SubID
	t    workload.TopicID
	slot int32
}

// pairRowsOracle lists every placed pair instance, sorted by subscriber,
// topic and slot: what the pair rows must hold, row after row.
func pairRowsOracle(a *Allocation) []pairTriple {
	var out []pairTriple
	if a != nil {
		for i, vm := range a.VMs {
			for _, p := range vm.Placements {
				for _, v := range p.Subs {
					out = append(out, pairTriple{v, p.Topic, int32(i)})
				}
			}
		}
	}
	slices.SortFunc(out, func(x, y pairTriple) int {
		if c := cmp.Compare(x.v, y.v); c != 0 {
			return c
		}
		if c := cmp.Compare(x.t, y.t); c != 0 {
			return c
		}
		return cmp.Compare(x.slot, y.slot)
	})
	return out
}

// placedPairs lists every (topic, subscriber) pair an allocation serves,
// topic-ascending: the placed selection's reference, fed to
// SelectionFromPairs.
func placedPairs(alloc *Allocation) []workload.Pair {
	if alloc == nil {
		return nil
	}
	var ps []TopicPlacement
	for _, vm := range alloc.VMs {
		ps = append(ps, vm.Placements...)
	}
	slices.SortFunc(ps, func(a, b TopicPlacement) int { return cmp.Compare(a.Topic, b.Topic) })
	var pairs []workload.Pair
	for _, p := range ps {
		for _, v := range p.Subs {
			pairs = append(pairs, workload.Pair{Topic: p.Topic, Sub: v})
		}
	}
	return pairs
}

// TestPairRowsMatchOracle compares the pair rows of random allocations
// with the sorted list of their (subscriber, topic, slot) triples, and
// the placed selection with SelectionFromPairs over the placed pairs.
func TestPairRowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for c := 0; c < 800; c++ {
		numT, numV := 1+rng.Intn(8), 1+rng.Intn(10)
		a := randomRowsAllocation(rng, numT, numV)
		rows := a.PairRows(numT, numV)
		var got []pairTriple
		for v := range numV {
			for _, e := range rows.Row(workload.SubID(v)) {
				got = append(got, pairTriple{workload.SubID(v), e.Topic, e.Slot})
			}
		}
		if want := pairRowsOracle(a); !slices.Equal(got, want) {
			t.Fatalf("case %d: rows %v, oracle %v", c, got, want)
		}

		w, err := workload.FromCSR(make([]int64, numT), make([]int64, numV+1), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SelectionFromPairs(w, placedPairs(a))
		if err != nil {
			t.Fatal(err)
		}
		sel := PlacedSelection(w, a)
		if !slices.Equal(sel.subOff, want.subOff) || !slices.Equal(sel.subTopics, want.subTopics) {
			t.Fatalf("case %d: placed selection %v %v, oracle %v %v", c, sel.subOff, sel.subTopics, want.subOff, want.subTopics)
		}
	}
}

// appendIndex holds the fields of an IncrementalState that the index's
// row build fills.
type appendIndex struct {
	selRows              [][]workload.TopicID
	hostRows             [][]int32
	delivered            []int64
	totalPairs, lbEvents int64
	baseRegret           float64
}

// appendBuildIndex is the index's row build as first written: per
// subscriber appends in placement order, an insertion sort of each row
// with its hosts aligned, then a scan for a pair placed twice. Only upper
// bounds are range-checked.
func appendBuildIndex(w *workload.Workload, alloc *Allocation, cfg Config) (*appendIndex, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	numV := w.NumSubscribers()
	s := &appendIndex{
		selRows:   make([][]workload.TopicID, numV),
		hostRows:  make([][]int32, numV),
		delivered: make([]int64, numV),
	}
	for i, vm := range alloc.VMs {
		for _, p := range vm.Placements {
			if int(p.Topic) >= w.NumTopics() {
				return nil, fmt.Errorf("core: allocation places topic %d outside workload (%d topics)", p.Topic, w.NumTopics())
			}
			for _, v := range p.Subs {
				if int(v) >= numV {
					return nil, fmt.Errorf("core: allocation places subscriber %d outside workload (%d subscribers)", v, numV)
				}
				s.selRows[v] = append(s.selRows[v], p.Topic)
				s.hostRows[v] = append(s.hostRows[v], int32(i))
				s.delivered[v] += w.Rate(p.Topic)
				s.totalPairs++
			}
		}
	}
	for v := range s.selRows {
		row, hosts := s.selRows[v], s.hostRows[v]
		for i := 1; i < len(row); i++ {
			t, h := row[i], hosts[i]
			j := i - 1
			for j >= 0 && row[j] > t {
				row[j+1], hosts[j+1] = row[j], hosts[j]
				j--
			}
			row[j+1], hosts[j+1] = t, h
		}
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("core: pair (t=%d, v=%d) placed more than once", row[i], v)
			}
		}
	}
	for v := range numV {
		tauV := max(w.TauV(workload.SubID(v), cfg.Tau), w.MinRate(workload.SubID(v)))
		s.lbEvents += tauV
	}
	s.baseRegret = regretFrac(alloc.Cost(cfg.Model), boundFromEvents(s.lbEvents, cfg).Cost)
	return s, nil
}

// appendBuildDiff describes the first field of s that differs from the
// oracle o, or returns "". The base regret is compared only when
// withRegret is set: a state that has run epochs keeps the regret of the
// allocation it was built from.
func appendBuildDiff(s *IncrementalState, o *appendIndex, withRegret bool) string {
	if len(s.selRows) != len(o.selRows) || len(s.hostRows) != len(o.hostRows) {
		return fmt.Sprintf("%d/%d rows, oracle %d/%d", len(s.selRows), len(s.hostRows), len(o.selRows), len(o.hostRows))
	}
	for v := range o.selRows {
		if !slices.Equal(s.selRows[v], o.selRows[v]) {
			return fmt.Sprintf("selRows[%d] %v, oracle %v", v, s.selRows[v], o.selRows[v])
		}
		if !slices.Equal(s.hostRows[v], o.hostRows[v]) {
			return fmt.Sprintf("hostRows[%d] %v, oracle %v", v, s.hostRows[v], o.hostRows[v])
		}
	}
	switch {
	case !slices.Equal(s.delivered, o.delivered):
		return fmt.Sprintf("delivered %v, oracle %v", s.delivered, o.delivered)
	case s.totalPairs != o.totalPairs:
		return fmt.Sprintf("totalPairs %d, oracle %d", s.totalPairs, o.totalPairs)
	case s.lbEvents != o.lbEvents:
		return fmt.Sprintf("lbEvents %d, oracle %d", s.lbEvents, o.lbEvents)
	case withRegret && s.baseRegret != o.baseRegret:
		return fmt.Sprintf("baseRegret %v, oracle %v", s.baseRegret, o.baseRegret)
	}
	return ""
}

// indexVsAppendBuild builds the index and the append-built oracle over
// the same allocation. Both must fail or neither; a built index must
// match the oracle field by field. It returns "" when they agree.
func indexVsAppendBuild(w *workload.Workload, alloc *Allocation, cfg Config) string {
	s, err := NewIncrementalState(w, alloc, cfg)
	o, oerr := appendBuildIndex(w, alloc, cfg)
	switch {
	case (err == nil) != (oerr == nil):
		return fmt.Sprintf("index error %v, oracle error %v", err, oerr)
	case err != nil:
		return ""
	}
	return appendBuildDiff(s, o, true)
}

// liveIndexVsAppendBuild compares a state that has run epochs with the
// append-built oracle over the allocation it now mirrors.
func liveIndexVsAppendBuild(s *IncrementalState) string {
	o, err := appendBuildIndex(s.w, s.base, s.cfg)
	if err != nil {
		return fmt.Sprintf("oracle error %v", err)
	}
	return appendBuildDiff(s, o, false)
}

// Exported for TestIndexMatchesAppendBuild, which lives in the external
// test package because experiments imports core.
var (
	IndexVsAppendBuild     = indexVsAppendBuild
	LiveIndexVsAppendBuild = liveIndexVsAppendBuild
)
