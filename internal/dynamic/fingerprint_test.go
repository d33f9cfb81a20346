package dynamic

import (
	"context"
	"slices"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// fingerprintPins are pinned StateFingerprint values. Journals and plan
// files on disk carry fingerprints and recovery re-checks the chain, so
// any change to the hashed byte stream must fail here.
var fingerprintPins = map[string]string{
	"nil":         "471d8a90b8f522e7",
	"empty":       "471d8a90b8f522e7",
	"solved":      "883b8272fb2b959e",
	"incremental": "7ffec3a61b7d183c",
	"regions":     "4fef41101514dca7",
}

// TestStateFingerprintPinned recomputes the pinned fingerprints: a solved
// state, the same state after incremental epochs (whose placements and
// subscriber lists are no longer sorted, so the canonical order is
// exercised), a region-tagged workload, and the nil and empty states.
func TestStateFingerprintPinned(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 9)
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"nil":    StateFingerprint(nil, nil),
		"empty":  StateFingerprint(&workload.Workload{}, &core.Allocation{}),
		"solved": StateFingerprint(w, res.Allocation),
	}

	prov := Restore(w, res, cfg)
	for epoch := 0; epoch < 3; epoch++ {
		cur := prov.Workload()
		d := Delta{
			RateChanges:    map[workload.TopicID]int64{workload.TopicID(epoch): cur.Rate(workload.TopicID(epoch)) + 17},
			NewSubscribers: 1,
			Subscribe: []workload.Pair{
				{Topic: workload.TopicID(3 + epoch), Sub: workload.SubID(cur.NumSubscribers())},
				{Topic: workload.TopicID(11 - epoch), Sub: workload.SubID(cur.NumSubscribers())},
			},
			Unsubscribe: []workload.Pair{{Topic: cur.Topics(workload.SubID(epoch))[0], Sub: workload.SubID(epoch)}},
		}
		if _, err := prov.UpdateIncremental(context.Background(), d); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	if !hasUnsortedPlacements(prov.Allocation()) || !hasUnsortedSubs(prov.Allocation()) {
		t.Fatal("incremental state is fully sorted; the pin would not exercise the canonical order")
	}
	got["incremental"] = StateFingerprint(prov.Workload(), prov.Allocation())

	rw, err := tracegen.TagRegions(stepsTestWorkload(t, 17), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := core.Solve(rw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got["regions"] = StateFingerprint(rw, rres.Allocation)

	for name, want := range fingerprintPins {
		if got[name] != want {
			t.Errorf("%s: fingerprint %s, pinned %s", name, got[name], want)
		}
	}
}

func hasUnsortedPlacements(a *core.Allocation) bool {
	for _, vm := range a.VMs {
		if !slices.IsSortedFunc(vm.Placements, func(x, y core.TopicPlacement) int { return int(x.Topic) - int(y.Topic) }) {
			return true
		}
	}
	return false
}

func hasUnsortedSubs(a *core.Allocation) bool {
	for _, vm := range a.VMs {
		for _, p := range vm.Placements {
			if !slices.IsSorted(p.Subs) {
				return true
			}
		}
	}
	return false
}

// TestKnownFingerprint: AdoptFingerprinted remembers the fingerprint for
// exactly the state it installed; an Adopt or a crash repair installs
// another state and drops it.
func TestKnownFingerprint(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 9)
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prov := Restore(w, res, cfg)
	if _, ok := prov.KnownFingerprint(); ok {
		t.Fatal("a restored provisioner claims a known fingerprint")
	}
	fp := StateFingerprint(w, res.Allocation)
	prov.AdoptFingerprinted(w, res, fp)
	if got, ok := prov.KnownFingerprint(); !ok || got != fp {
		t.Fatalf("known fingerprint %q (%v), want %s", got, ok, fp)
	}
	prov.Adopt(w, res)
	if _, ok := prov.KnownFingerprint(); ok {
		t.Fatal("Adopt kept the fingerprint AdoptFingerprinted installed")
	}
	prov.AdoptFingerprinted(w, res, fp)
	if _, err := prov.RepairCrash(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := prov.KnownFingerprint(); ok {
		t.Fatal("a crash repair kept the pre-repair fingerprint")
	}
}
