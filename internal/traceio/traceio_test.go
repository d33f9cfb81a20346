package traceio

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/spot"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/topo"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

func sample(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics: 30, Subscribers: 100, MaxFollowings: 5, MaxRate: 500, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func equalWorkloads(a, b *workload.Workload) bool {
	if a.NumTopics() != b.NumTopics() || a.NumSubscribers() != b.NumSubscribers() || a.NumPairs() != b.NumPairs() {
		return false
	}
	for t := 0; t < a.NumTopics(); t++ {
		if a.Rate(workload.TopicID(t)) != b.Rate(workload.TopicID(t)) {
			return false
		}
	}
	for v := 0; v < a.NumSubscribers(); v++ {
		ta, tb := a.Topics(workload.SubID(v)), b.Topics(workload.SubID(v))
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return false
			}
		}
	}
	return true
}

func TestWriteReadRoundTrip(t *testing.T) {
	w := sample(t)
	var buf bytes.Buffer
	if err := Write(w, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWorkloads(w, got) {
		t.Error("round trip changed the workload")
	}
}

func TestSaveLoadPlainAndGzip(t *testing.T) {
	w := sample(t)
	dir := t.TempDir()
	for _, name := range []string{"trace.txt", "trace.txt.gz"} {
		path := filepath.Join(dir, name)
		if err := Save(w, path); err != nil {
			t.Fatalf("Save(%s): %v", name, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if !equalWorkloads(w, got) {
			t.Errorf("%s: round trip changed the workload", name)
		}
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	w := sample(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.txt")
	zipped := filepath.Join(dir, "t.txt.gz")
	if err := Save(w, plain); err != nil {
		t.Fatal(err)
	}
	if err := Save(w, zipped); err != nil {
		t.Fatal(err)
	}
	ps, zs := fileSize(t, plain), fileSize(t, zipped)
	if zs >= ps {
		t.Errorf("gzip file (%d) not smaller than plain (%d)", zs, ps)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestReadRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad magic", "not-a-trace\n1 1 1\n"},
		{"bad header", "mcss-trace 1\nx y z\n"},
		{"negative counts", "mcss-trace 1\n-1 0 0\n"},
		{"truncated topics", "mcss-trace 1\n2 1 1\n5\n"},
		{"bad rate", "mcss-trace 1\n1 1 1\nabc\n0\n"},
		{"truncated subscribers", "mcss-trace 1\n1 2 2\n5\n0\n"},
		{"bad topic id", "mcss-trace 1\n1 1 1\n5\nzz\n"},
		{"pair count mismatch", "mcss-trace 1\n1 1 5\n5\n0\n"},
		{"out of range topic", "mcss-trace 1\n1 1 1\n5\n7\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.in)); err == nil {
				t.Error("malformed input accepted")
			}
		})
	}
}

func TestReadBadFormatErrorsWrapped(t *testing.T) {
	_, err := Read(strings.NewReader("garbage\n"))
	if !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestEmptyWorkloadRoundTrip(t *testing.T) {
	w, err := workload.FromCSR(nil, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(w, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTopics() != 0 || got.NumSubscribers() != 0 {
		t.Error("empty round trip not empty")
	}
}

func TestPropertyRoundTripPreservesWorkload(t *testing.T) {
	f := func(seed int64) bool {
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        1 + int(uint64(seed)%13),
			Subscribers:   1 + int(uint64(seed)%29),
			MaxFollowings: 4,
			MaxRate:       1000,
			Seed:          seed,
		})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(w, &buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return equalWorkloads(w, got)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRegionTaggedRoundTrip: region tags survive every trace container —
// text, binary, the timeline, and their gzip variants — and an untagged
// workload keeps producing the exact legacy bytes (no marker, no trailing
// section).
func TestRegionTaggedRoundTrip(t *testing.T) {
	base := sample(t)
	w, err := tracegen.TagRegions(base, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	sameRegionsAs := func(name string, w, got *workload.Workload) {
		t.Helper()
		if !equalWorkloads(w, got) {
			t.Fatalf("%s: workload changed", name)
		}
		if !got.HasRegions() {
			t.Fatalf("%s: region tags dropped", name)
		}
		for tp := 0; tp < w.NumTopics(); tp++ {
			if got.TopicRegion(workload.TopicID(tp)) != w.TopicRegion(workload.TopicID(tp)) {
				t.Fatalf("%s: topic %d region changed", name, tp)
			}
		}
		for v := 0; v < w.NumSubscribers(); v++ {
			if got.SubscriberRegion(workload.SubID(v)) != w.SubscriberRegion(workload.SubID(v)) {
				t.Fatalf("%s: subscriber %d region changed", name, v)
			}
		}
	}
	sameRegions := func(name string, got *workload.Workload) {
		t.Helper()
		sameRegionsAs(name, w, got)
	}

	var buf bytes.Buffer
	if err := Write(w, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 3)[1], " regions") {
		t.Fatal("tagged text header missing the regions marker")
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameRegions("text", got)

	dir := t.TempDir()
	for _, name := range []string{"w.trace", "w.trace.gz", "w.bin", "w.bin.gz"} {
		path := filepath.Join(dir, name)
		if err := Save(w, path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRegions(name, got)
	}

	// A timeline embeds each epoch as a trace, " regions" marker included.
	w2, err := tracegen.TagRegions(base, 4, 18)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := timeline.New(60, []*workload.Workload{w, w2})
	if err != nil {
		t.Fatal(err)
	}
	sameEpochs := func(name string, got *timeline.Timeline) {
		t.Helper()
		if got.NumEpochs() != 2 {
			t.Fatalf("%s: %d epochs", name, got.NumEpochs())
		}
		sameRegionsAs(name+" epoch 0", w, got.Epochs[0])
		sameRegionsAs(name+" epoch 1", w2, got.Epochs[1])
	}
	buf.Reset()
	if err := WriteTimeline(tl, &buf); err != nil {
		t.Fatal(err)
	}
	gotTL, err := ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameEpochs("timeline", gotTL)
	path := filepath.Join(dir, "w.timeline.gz")
	if err := SaveTimeline(tl, path); err != nil {
		t.Fatal(err)
	}
	if gotTL, err = LoadTimeline(path); err != nil {
		t.Fatal(err)
	}
	sameEpochs("w.timeline.gz", gotTL)

	// Untagged output is byte-for-byte the legacy format.
	var plain bytes.Buffer
	if err := Write(base, &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "regions") {
		t.Fatal("untagged trace grew a regions marker")
	}
	var plainBin bytes.Buffer
	if err := WriteBinary(base, &plainBin); err != nil {
		t.Fatal(err)
	}
	gotBin, err := ReadBinary(bytes.NewReader(plainBin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotBin.HasRegions() {
		t.Fatal("untagged binary trace came back tagged")
	}

	// Malformed region sections fail with ErrBadFormat.
	for _, in := range []string{
		"mcss-trace 1\n1 1 1 regions\n5\n0\n",         // section missing
		"mcss-trace 1\n1 1 1 regions\n5\n0\n0 0\n0\n", // too many topic regions
		"mcss-trace 1\n1 1 1 regions\n5\n0\n-2\n0\n",  // negative region
		"mcss-trace 1\n1 1 1 bogus\n5\n0\n",           // unknown header marker
	} {
		if _, err := Read(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: err = %v, want ErrBadFormat", in, err)
		}
	}
}

// A Save whose document is rejected leaves an existing file byte-identical,
// with or without gzip.
func TestRejectedSaveKeepsExistingFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		save func(path string) error
		want error
	}{
		{"timeline", func(p string) error { return SaveTimeline(&timeline.Timeline{}, p) }, timeline.ErrInvalidTimeline},
		{"topology", func(p string) error { return SaveTopology(nil, p) }, topo.ErrInvalidTopology},
		{"spot market", func(p string) error { return SaveSpotMarket(&spot.Market{}, p) }, spot.ErrInvalidMarket},
		{"plan", func(p string) error { return SavePlan(&deploy.Plan{}, p) }, deploy.ErrInvalidPlan},
	} {
		for _, ext := range []string{".json", ".json.gz"} {
			path := filepath.Join(t.TempDir(), "doc"+ext)
			old := []byte("existing contents\n")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.save(path); !errors.Is(err, tc.want) {
				t.Errorf("%s%s: Save err = %v, want %v", tc.name, ext, err, tc.want)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, old) {
				t.Errorf("%s%s: rejected Save changed the file to %q", tc.name, ext, got)
			}
		}
	}
}

// TestUnsortedTraceRowTopsUpOnce: a text trace may list a subscriber's
// topics in any order, and the reader hands them over ascending. Subscriber
// 0 follows "1 0" and solves to topic 0; when topic 0's rate drops, the
// incremental top-up merges the interests with the selected row. With the
// row left as written the merge missed topic 0, the top-up placed it a
// second time, and VerifyAllocation reported "vm 0: subscriber 0 listed
// twice for topic 0".
func TestUnsortedTraceRowTopsUpOnce(t *testing.T) {
	w, err := Read(strings.NewReader("mcss-trace 1\n2 2 3\n100\n70\n1 0\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Topics(0); !slices.Equal(got, []workload.TopicID{0, 1}) {
		t.Errorf("subscriber 0 follows %v, want [0 1]", got)
	}
	cfg := core.DefaultConfig(100, pricing.NewModel(pricing.C3Large))
	p, err := dynamic.New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Selection().SelectedTopics(0); !slices.Equal(got, []workload.TopicID{0}) {
		t.Fatalf("subscriber 0 selects %v, want [0]", got)
	}
	if _, err := p.UpdateIncremental(context.Background(), dynamic.Delta{RateChanges: map[workload.TopicID]int64{0: 40}}); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAllocation(p.Workload(), p.Selection(), p.Allocation(), cfg); err != nil {
		t.Fatal(err)
	}
}
