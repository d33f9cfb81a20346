package traceio

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// FuzzRead hardens the text parser: any input must either parse into a
// valid workload or return an error — never panic, never produce a
// workload that breaks the CSR invariants.
func FuzzRead(f *testing.F) {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 5, Subscribers: 10, MaxFollowings: 3, MaxRate: 50, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(w, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("mcss-trace 1\n0 0 0\n")
	f.Add("mcss-trace 1\n1 1 1\n5\n0\n")
	f.Add("mcss-trace 1\n1 1 1\n5\n0 0 0\n")
	f.Add("mcss-trace 1\n1 1 1 regions\n5\n0\n1\n2\n")
	f.Add("mcss-trace 1\n1 1 1 regions\n5\n0\n-1\n0\n")
	f.Add("mcss-trace 1\n1 1 1 regions\n5\n0\n")
	f.Add("garbage")
	f.Add("mcss-trace 1\n-1 -2 -3\n")

	f.Fuzz(func(t *testing.T, input string) {
		got, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		// Parsed successfully: the workload must be internally
		// consistent (re-serializable and re-parsable to equal shape).
		var out bytes.Buffer
		if err := Write(got, &out); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !equalWorkloads(got, back) {
			t.Fatal("round trip after fuzz parse changed the workload")
		}
	})
}

// FuzzReadTimeline hardens the timeline parser the same way: any input
// must either parse into a round-trippable epoch sequence or return an
// error — never panic, never allocate from a hostile header.
func FuzzReadTimeline(f *testing.F) {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 4, Subscribers: 8, MaxFollowings: 2, MaxRate: 30, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	seed, err := timeline.New(30, []*workload.Workload{w, w})
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteTimeline(seed, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("mcss-timeline 1\n1 60\nmcss-trace 1\n0 0 0\n")
	f.Add("mcss-timeline 1\n2 60\nmcss-trace 1\n0 0 0\n")
	f.Add("mcss-timeline 1\n999999999 60\n")
	f.Add("mcss-timeline 1\n-1 -1\n")
	f.Add("garbage")

	f.Fuzz(func(t *testing.T, input string) {
		tl, err := ReadTimeline(strings.NewReader(input))
		if err != nil {
			return
		}
		if tl.EpochMinutes <= 0 || tl.NumEpochs() == 0 {
			t.Fatalf("parsed timeline with %d epochs × %d min and no error", tl.NumEpochs(), tl.EpochMinutes)
		}
		var out bytes.Buffer
		if err := WriteTimeline(tl, &out); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		back, err := ReadTimeline(&out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if back.EpochMinutes != tl.EpochMinutes || back.NumEpochs() != tl.NumEpochs() {
			t.Fatal("round trip changed the timeline shape")
		}
		for e := range tl.Epochs {
			if !equalWorkloads(tl.Epochs[e], back.Epochs[e]) {
				t.Fatalf("round trip changed epoch %d", e)
			}
		}
	})
}

// FuzzReadPlan hardens the JSON plan parser, mirroring FuzzReadTimeline:
// any input must either parse into a valid, re-serializable plan or fail
// with ErrBadFormat / deploy.ErrInvalidPlan — never panic, never yield a
// plan that its own writer rejects.
func FuzzReadPlan(f *testing.F) {
	b := workload.NewBuilder().AddTopic("a", 30).AddTopic("b", 9)
	b.AddSubscription("u", "a")
	b.AddSubscription("u", "b")
	b.AddSubscription("v", "a")
	w, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 50_000
	cfg := core.DefaultConfig(20, model)
	seedPlan, err := solvePlan(context.Background(), cfg, w, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(seedPlan, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	// Both versions: the committed v1 file, whose steps place one topic's
	// subscribers, and hand-made documents of each version.
	v1, err := os.ReadFile(filepath.Join("testdata", "plan_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(v1))
	const tail = `"target":{"workload":{"rates":[1,2],"sub_offsets":[0,2],"sub_topics":[0,1]},"allocation":[]}}`
	f.Add(`{"format":"mcss-plan","version":1,"base_fingerprint":"x","tau":1,"message_bytes":1,"steps":[` +
		`{"op":"boot-vm","vm":0,"instance":{"name":"c3.large","hourly_rate":"0.15","link_mbps":64},"capacity_bytes_per_hour":9},` +
		`{"op":"place","vm":0,"topic":1,"subs":[0]},{"op":"remove","vm":0,"topic":0,"subs":[0]}],` + tail)
	f.Add(`{"format":"mcss-plan","version":2,"base_fingerprint":"x","tau":1,"message_bytes":1,"steps":[` +
		`{"op":"boot-vm","vm":1,"instance":{"name":"c3.large","hourly_rate":"0.15","link_mbps":64},"capacity_bytes_per_hour":9,` +
		`"place":[{"topic":0,"subs":[0]}]},{"op":"reconfigure","vm":0,"remove":[{"topic":1,"subs":[0]}],"place":[{"topic":0,"subs":[0]}]},` +
		`{"op":"retire-vm","vm":2,"remove":[{"topic":1,"subs":[0]}]}],` + tail)
	f.Add(`{"format":"mcss-plan","version":1}`)
	f.Add(`{"format":"mcss-plan","version":1,"base_fingerprint":"x","tau":1,"message_bytes":1,` +
		`"target":{"workload":{"rates":[],"sub_offsets":[0],"sub_topics":[]},"allocation":[]}}`)
	f.Add(`{"format":"mcss-plan","version":1,"base_fingerprint":"x","tau":1,"message_bytes":1,` +
		`"steps":[{"op":"boot-vm","vm":-3}],` +
		`"target":{"workload":{"rates":[1],"sub_offsets":[0,1],"sub_topics":[0]},"allocation":[]}}`)
	f.Add(`{"format":"mcss-plan","version":-1,"tau":-5,"cost_after":"999999999999999999999999"}`)
	f.Add("garbage")
	f.Add(`{}`)

	f.Fuzz(func(t *testing.T, input string) {
		plan, err := ReadPlan(strings.NewReader(input))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, deploy.ErrInvalidPlan) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		// Parsed successfully: the plan must re-serialize, to the bytes
		// json.MarshalIndent writes for the oracle's document, and re-parse
		// to the same fingerprints and step sequence.
		var out bytes.Buffer
		if err := WritePlan(plan, &out); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		doc, err := planToDoc(plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), append(want, '\n')) {
			t.Fatalf("re-serialized plan is not the oracle's document:\n%s\nwant:\n%s", out.Bytes(), want)
		}
		back, err := ReadPlan(&out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if back.BaseFingerprint != plan.BaseFingerprint || back.TargetFingerprint() != plan.TargetFingerprint() {
			t.Fatal("round trip moved the plan fingerprints")
		}
		if len(back.Steps) != len(plan.Steps) {
			t.Fatalf("round trip changed step count %d → %d", len(plan.Steps), len(back.Steps))
		}
		for i, s := range plan.Steps {
			b := back.Steps[i]
			if b.Op != s.Op || b.VM != s.VM || !sameEdits(b.Remove, s.Remove) || !sameEdits(b.Place, s.Place) {
				t.Fatalf("round trip changed step %d: %v → %v", i, s, b)
			}
		}
	})
}

// FuzzReadBinary does the same for the varint binary parser.
func FuzzReadBinary(f *testing.F) {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 5, Subscribers: 10, MaxFollowings: 3, MaxRate: 50, Seed: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(w, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("MCSB\x02"))
	f.Add([]byte("MCSB\x02\x00\x00\x00"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, input []byte) {
		got, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(got, &out); err != nil {
			// A parsed workload can still have unsorted interests only
			// if the parser is broken — surface it.
			t.Fatalf("re-serialize: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !equalWorkloads(got, back) {
			t.Fatal("round trip after fuzz parse changed the workload")
		}
	})
}

// FuzzReadJournal hardens the apply-journal reader: any byte stream must
// either scan into records (possibly with a torn tail) or fail typed as
// ErrCorruptJournal — never panic, never an untyped error — and whatever
// scans must replay through Recover under the same contract.
func FuzzReadJournal(f *testing.F) {
	b := workload.NewBuilder().AddTopic("a", 30).AddTopic("b", 9)
	b.AddSubscription("u", "a")
	b.AddSubscription("u", "b")
	b.AddSubscription("v", "a")
	w, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	model := pricing.NewModel(pricing.C3Large)
	model.CapacityOverrideBytesPerHour = 50_000
	cfg := core.DefaultConfig(20, model)
	plan, err := solvePlan(context.Background(), cfg, w, nil)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := OpenJournal(path, deploy.JournalOptions{})
	if err != nil {
		f.Fatal(err)
	}
	snap, err := deploy.Snapshot(cfg, deploy.EmptyState())
	if err != nil {
		f.Fatal(err)
	}
	if err := j.AppendSnapshot(-1, snap); err != nil {
		f.Fatal(err)
	}
	if err := j.AppendPlanBegin(0, plan); err != nil {
		f.Fatal(err)
	}
	for s := range plan.Steps {
		if err := j.AppendStepDone(0, s); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.AppendPlanCommit(0, plan.TargetFingerprint()); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// Journals crashed mid-plan: plan-begin bodies without the target
	// (untagged, and region-tagged with added topics and subscribers),
	// and the whole-plan body earlier versions wrote.
	gcfg, gbase, gplan := goldenFollowup(f)
	rcfg, rbase, _, rplan := regionFollowup(f)
	for i, c := range []struct {
		codec deploy.JournalCodec
		cfg   core.Config
		base  *deploy.State
		plan  *deploy.Plan
	}{
		{PlanJournalCodec(), gcfg, gbase, gplan},
		{PlanJournalCodec(), rcfg, rbase, rplan},
		{wholePlanCodec(false, gplan), gcfg, gbase, gplan},
	} {
		p := filepath.Join(f.TempDir(), fmt.Sprintf("crash%d.journal", i))
		crashApply(f, p, c.codec, c.cfg, c.base, c.plan, 1)
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A journal crashed inside a plan whose begin body is a version-1
	// document.
	v1cfg, v1Plan, v1Codec := v1Journaling(f)
	v1Path := filepath.Join(f.TempDir(), "v1.journal")
	crashApply(f, v1Path, v1Codec, v1cfg, deploy.EmptyState(), v1Plan, 3)
	v1Journal, err := os.ReadFile(v1Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1Journal)
	f.Add(seed[:len(seed)-3])                                // torn tail
	f.Add([]byte("mcss-journal 1\n"))                        // header only
	f.Add([]byte("mcss-journal 1\nXXXX"))                    // torn frame
	f.Add([]byte("mcss-journal 2\n"))                        // wrong version
	f.Add([]byte{})                                          // crash before the magic
	f.Add(bytes.Repeat([]byte{0xff}, 64))                    // garbage
	f.Add(append([]byte("mcss-journal 1\n"), 0, 0, 0, 0, 0)) // zero-length frame

	f.Fuzz(func(t *testing.T, input []byte) {
		recs, torn, err := deploy.ReadJournal(bytes.NewReader(input))
		if err != nil {
			if !errors.Is(err, deploy.ErrCorruptJournal) {
				t.Fatalf("untyped journal read error: %v", err)
			}
			// Corruption still hands back the valid prefix for partial
			// recovery; replay below must hold for it too.
		}
		rec, rerr := deploy.Recover(recs, torn, PlanJournalCodec())
		if rerr != nil && !errors.Is(rerr, deploy.ErrCorruptJournal) {
			t.Fatalf("untyped recovery error: %v", rerr)
		}
		if rec == nil {
			t.Fatal("Recover returned no recovery")
		}
		if rec.State == nil {
			t.Fatal("recovery without a state")
		}
		if rec.InFlight != nil && (rec.NextStep < 0 || rec.NextStep > len(rec.InFlight.Steps)) {
			t.Fatalf("resume point %d outside plan of %d steps", rec.NextStep, len(rec.InFlight.Steps))
		}
	})
}

// FuzzReadSpotMarket hardens the spot-market parser under the symmetric
// error contract: any input either parses into a market that Validate and
// WriteSpotMarket both accept, or fails with ErrBadFormat (malformed
// wire bytes) / spot.ErrInvalidMarket (well-formed JSON violating the
// model) — never panic, never an untyped error.
func FuzzReadSpotMarket(f *testing.F) {
	base, err := pricing.NewFleetWithCapacities(
		[]pricing.InstanceType{pricing.C3Large}, []int64{1 << 28})
	if err != nil {
		f.Fatal(err)
	}
	gcfg := spot.DefaultMarketConfig()
	gcfg.Epochs = 4
	seed, err := spot.GenerateMarket(base, gcfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSpotMarket(seed, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"format":"mcss-spot-market","version":1}`)
	f.Add(`{"format":"mcss-spot-market","version":1,"epoch_minutes":60,"num_azs":2,` +
		`"types":[{"base":{"name":"x","hourly_rate":"0.15","link_mbps":64},` +
		`"prices":["0.05"],"reclaim_prob":[0.5]}],"storms":[{"epoch":0,"az":5}]}`)
	f.Add(`{"format":"mcss-spot-market","version":1,"epoch_minutes":-60,"num_azs":0}`)
	f.Add(`{"format":"mcss-timeline","version":1}`)
	f.Add("garbage")
	f.Add(`{}`)

	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadSpotMarket(strings.NewReader(input))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, spot.ErrInvalidMarket) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parser returned an invalid market: %v", err)
		}
		var out bytes.Buffer
		if err := WriteSpotMarket(m, &out); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		back, err := ReadSpotMarket(&out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if back.Epochs() != m.Epochs() || len(back.Types) != len(m.Types) ||
			len(back.Storms) != len(m.Storms) {
			t.Fatal("round trip changed the market shape")
		}
	})
}

// FuzzReadTopology hardens the topology parser under the symmetric error
// contract: any input either parses into a topology that WriteTopology
// accepts and that round-trips unchanged, or fails with ErrBadFormat
// (malformed wire bytes) / core.ErrInvalidTopology (well-formed JSON
// violating the model) — never panic, never an untyped error.
func FuzzReadTopology(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTopology(core.SyntheticTopology(3), &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"format":"mcss-topology","version":1,"regions":["a"],` +
		`"rtt_millis":[[0]],"egress_per_gb":[["0"]]}`)
	f.Add(`{"format":"mcss-topology","version":1,"regions":["a","a"],` +
		`"rtt_millis":[[0,0],[0,0]],"egress_per_gb":[["0","0"],["0","0"]]}`)
	f.Add(`{"format":"mcss-topology","version":1,"regions":["a","b"],` +
		`"rtt_millis":[[0,-5],[5,0]],"egress_per_gb":[["0","0"],["0","0"]]}`)
	f.Add(`{"format":"mcss-topology","version":1,"regions":["a"],` +
		`"rtt_millis":[[0]],"egress_per_gb":[["0.02"]]}`)
	f.Add(`{"format":"mcss-timeline","version":1}`)
	f.Add("garbage")
	f.Add(`{}`)

	f.Fuzz(func(t *testing.T, input string) {
		tp, err := ReadTopology(strings.NewReader(input))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, core.ErrInvalidTopology) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteTopology(tp, &out); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		back, err := ReadTopology(&out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if back.NumRegions() != tp.NumRegions() {
			t.Fatal("round trip changed the region count")
		}
		for i := 0; i < tp.NumRegions(); i++ {
			if back.RegionName(i) != tp.RegionName(i) {
				t.Fatal("round trip changed a region name")
			}
			for j := 0; j < tp.NumRegions(); j++ {
				if back.RTTMillis(i, j) != tp.RTTMillis(i, j) ||
					back.EgressPerGB(i, j) != tp.EgressPerGB(i, j) {
					t.Fatal("round trip changed a matrix entry")
				}
			}
		}
	})
}
