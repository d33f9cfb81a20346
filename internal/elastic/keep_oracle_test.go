package elastic

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// keepWithTopUpMap is the keep path with its own copy of the top-up: a map
// of every kept pair, and the rate-sorted candidates of each needy
// subscriber consumed by pickMinimalOvershoot. It is the test-only oracle
// for keepWithTopUp, which tops up through core.Rehomer.TopUp.
func keepWithTopUpMap(prev *core.Allocation, w *workload.Workload, cfg core.Config, solveFleet, trueFleet pricing.Fleet) (*core.Allocation, int64, bool) {
	msg := cfg.MessageBytes
	out := &core.Allocation{
		VMs:          make([]*core.VM, len(prev.VMs)),
		Fleet:        prev.Fleet,
		MessageBytes: msg,
	}
	delivered := make([]int64, w.NumSubscribers())
	placed := make(map[workload.Pair]bool)

	for i, vm := range prev.VMs {
		nv := &core.VM{
			ID:                   vm.ID,
			Instance:             vm.Instance,
			CapacityBytesPerHour: vm.CapacityBytesPerHour,
			Placements:           make([]core.TopicPlacement, 0, len(vm.Placements)),
		}
		for _, p := range vm.Placements {
			if int(p.Topic) >= w.NumTopics() {
				return nil, 0, false
			}
			subs := make([]workload.SubID, 0, len(p.Subs))
			for _, v := range p.Subs {
				if follows(w, v, p.Topic) {
					subs = append(subs, v)
				}
			}
			if len(subs) == 0 {
				continue
			}
			rb := w.Rate(p.Topic) * msg
			nv.Placements = append(nv.Placements, core.TopicPlacement{Topic: p.Topic, Subs: subs})
			nv.InBytesPerHour += rb
			nv.OutBytesPerHour += rb * int64(len(subs))
			for _, v := range subs {
				if int(v) < len(delivered) {
					delivered[v] += w.Rate(p.Topic)
				}
				placed[workload.Pair{Topic: p.Topic, Sub: v}] = true
			}
		}
		if nv.BytesPerHour() > trueCapacity(nv, trueFleet) {
			return nil, 0, false
		}
		out.VMs[i] = nv
	}

	rh := core.NewRehomer(out, solveFleet)
	var added int64
	var cands []workload.TopicID
	for v := 0; v < w.NumSubscribers(); v++ {
		id := workload.SubID(v)
		need := w.TauV(id, cfg.Tau) - delivered[v]
		if need <= 0 {
			continue
		}
		cands = cands[:0]
		for _, t := range w.Topics(id) {
			if !placed[workload.Pair{Topic: t, Sub: id}] {
				cands = append(cands, t)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			ri, rj := w.Rate(cands[i]), w.Rate(cands[j])
			if ri != rj {
				return ri < rj
			}
			return cands[i] < cands[j]
		})
		for need > 0 {
			t, rest, ok := pickMinimalOvershoot(w, cands, need)
			if !ok {
				return nil, 0, false
			}
			cands = rest
			if _, ok := rh.PlacePair(t, id, w.Rate(t)*msg); !ok {
				return nil, 0, false
			}
			placed[workload.Pair{Topic: t, Sub: id}] = true
			delivered[v] += w.Rate(t)
			need -= w.Rate(t)
			added++
		}
	}
	return out, added, true
}

// pickMinimalOvershoot chooses the next top-up topic from the rate-
// ascending candidate list: the largest rate ≤ need (fastest progress with
// no overshoot), else the smallest rate, which closes the gap with the
// least excess. It returns the pick and the remaining candidates.
func pickMinimalOvershoot(w *workload.Workload, cands []workload.TopicID, need int64) (workload.TopicID, []workload.TopicID, bool) {
	if len(cands) == 0 {
		return 0, nil, false
	}
	i := sort.Search(len(cands), func(i int) bool { return w.Rate(cands[i]) > need })
	if i > 0 {
		i--
	}
	t := cands[i]
	return t, append(cands[:i], cands[i+1:]...), true
}

// keptDiff describes the first difference between two kept fleets, or "".
func keptDiff(got, want []*core.VM) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d VMs, want %d", len(got), len(want))
	}
	for i, g := range got {
		x := want[i]
		if g.ID != x.ID || g.Instance != x.Instance || g.CapacityBytesPerHour != x.CapacityBytesPerHour ||
			g.InBytesPerHour != x.InBytesPerHour || g.OutBytesPerHour != x.OutBytesPerHour ||
			!slices.EqualFunc(g.Placements, x.Placements, func(a, b core.TopicPlacement) bool {
				return a.Topic == b.Topic && slices.Equal(a.Subs, b.Subs)
			}) {
			return fmt.Sprintf("vm %d: %+v, want %+v", i, *g, *x)
		}
	}
	return ""
}

// TestKeepWithTopUpMatchesMapOracle walks diurnal timelines (falling and
// rising rates, subscribers falling asleep and waking, a flash crowd) at
// three packing headrooms, keeping each epoch's allocation into the next
// and re-solving after an epoch the keep path refuses, and holds
// keepWithTopUp to the map-based oracle: the same verdict, pairs added and
// kept fleet, VM by VM.
func TestKeepWithTopUpMatchesMapOracle(t *testing.T) {
	var kept, refused, added int64
	for _, epochMinutes := range []int64{60, 30} {
		tl, cfg := testTimeline(t, 24, epochMinutes)
		trueFleet := cfg.EffectiveFleet()
		for _, headroom := range []float64{0, 0.15, 0.3} {
			solveCfg := cfg
			if headroom > 0 {
				solveCfg.Fleet = trueFleet.WithCapacityScale(1 - headroom)
			}
			solveFleet := solveCfg.EffectiveFleet()
			res, err := core.SolveContext(context.Background(), tl.Epochs[0], solveCfg)
			if err != nil {
				t.Fatal(err)
			}
			prev := res.Allocation
			for e := 1; e < len(tl.Epochs); e++ {
				w := tl.Epochs[e]
				want, wantAdded, wantOK := keepWithTopUpMap(prev, w, cfg, solveFleet, trueFleet)
				got, gotAdded, gotOK := keepWithTopUp(prev, w, cfg, solveFleet, trueFleet)
				if gotOK != wantOK || gotAdded != wantAdded {
					t.Fatalf("%d-minute epochs, headroom %v, epoch %d: ok=%v added=%d, oracle ok=%v added=%d",
						epochMinutes, headroom, e, gotOK, gotAdded, wantOK, wantAdded)
				}
				if !gotOK {
					refused++
					res, err := core.SolveContext(context.Background(), w, solveCfg)
					if err != nil {
						t.Fatal(err)
					}
					prev = res.Allocation
					continue
				}
				if d := keptDiff(got.VMs, want.VMs); d != "" {
					t.Fatalf("%d-minute epochs, headroom %v, epoch %d: %s", epochMinutes, headroom, e, d)
				}
				kept++
				added += gotAdded
				prev = got
			}
		}
	}
	if kept == 0 || refused == 0 || added == 0 {
		t.Fatalf("%d kept epochs (%d pairs added), %d refused; want all three nonzero", kept, added, refused)
	}
	t.Logf("%d kept epochs, %d pairs added, %d refused", kept, added, refused)
}
