package traceio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// goldenTopology is the deterministic topology committed as testdata: three
// asymmetric regions with hand-picked RTTs and egress prices (the asymmetry
// catches any transposed-matrix regression the symmetric synthetic topology
// would miss).
func goldenTopology(t testing.TB) *core.Topology {
	t.Helper()
	tp, err := core.NewTopology(
		[]string{"us-east", "eu-west", "ap-south"},
		[][]int64{
			{0, 80, 190},
			{85, 0, 140},
			{195, 145, 0},
		},
		[][]pricing.MicroUSD{
			{0, 20_000, 90_000},
			{22_000, 0, 80_000},
			{95_000, 85_000, 0},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestTopologyGolden pins the v1 wire format: the serialized golden
// topology must match the committed testdata byte for byte. Regenerate
// deliberately with
// UPDATE_GOLDEN=1 go test ./internal/traceio -run TestTopologyGolden
// and review the diff — an unintended change here is a format break.
func TestTopologyGolden(t *testing.T) {
	tp := goldenTopology(t)
	var buf bytes.Buffer
	if err := WriteTopology(tp, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "topology_v1.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("serialized topology differs from %s;\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	back, err := ReadTopology(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	assertTopologiesEqual(t, tp, back)
}

func assertTopologiesEqual(t *testing.T, a, b *core.Topology) {
	t.Helper()
	if a.NumRegions() != b.NumRegions() {
		t.Fatalf("region count %d != %d", a.NumRegions(), b.NumRegions())
	}
	for i := 0; i < a.NumRegions(); i++ {
		if a.RegionName(i) != b.RegionName(i) {
			t.Fatalf("region %d name %q != %q", i, a.RegionName(i), b.RegionName(i))
		}
		for j := 0; j < a.NumRegions(); j++ {
			if a.RTTMillis(i, j) != b.RTTMillis(i, j) {
				t.Fatalf("rtt[%d][%d] %d != %d", i, j, a.RTTMillis(i, j), b.RTTMillis(i, j))
			}
			if a.EgressPerGB(i, j) != b.EgressPerGB(i, j) {
				t.Fatalf("egress[%d][%d] %d != %d", i, j, a.EgressPerGB(i, j), b.EgressPerGB(i, j))
			}
		}
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	for _, tp := range []*core.Topology{
		goldenTopology(t),
		core.SyntheticTopology(1),
		core.SyntheticTopology(5),
	} {
		var buf bytes.Buffer
		if err := WriteTopology(tp, &buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTopology(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertTopologiesEqual(t, tp, back)
	}
}

func TestTopologySaveLoadGzip(t *testing.T) {
	tp := goldenTopology(t)
	dir := t.TempDir()
	for _, name := range []string{"topo.json", "topo.json.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveTopology(tp, path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := LoadTopology(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertTopologiesEqual(t, tp, back)
	}
}

func TestTopologyErrorContract(t *testing.T) {
	// Wire-level garbage → ErrBadFormat.
	for _, in := range []string{
		"garbage",
		`{}`,
		`{"format":"mcss-plan","version":1}`,
		`{"format":"mcss-topology","version":7}`,
	} {
		if _, err := ReadTopology(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: err = %v, want ErrBadFormat", in, err)
		}
	}
	// Parses but violates topology invariants → core.ErrInvalidTopology.
	for _, in := range []string{
		`{"format":"mcss-topology","version":1}`,
		`{"format":"mcss-topology","version":1,"regions":["a","a"],` +
			`"rtt_millis":[[0,0],[0,0]],"egress_per_gb":[["0","0"],["0","0"]]}`,
		`{"format":"mcss-topology","version":1,"regions":["a","b"],` +
			`"rtt_millis":[[0,5]],"egress_per_gb":[["0","0"],["0","0"]]}`,
		`{"format":"mcss-topology","version":1,"regions":["a"],` +
			`"rtt_millis":[[0]],"egress_per_gb":[["0.50"]]}`,
	} {
		if _, err := ReadTopology(strings.NewReader(in)); !errors.Is(err, core.ErrInvalidTopology) {
			t.Errorf("%q: err = %v, want core.ErrInvalidTopology", in, err)
		}
	}
	// WriteTopology rejects a nil topology symmetrically, leaving no bytes.
	var buf bytes.Buffer
	if err := WriteTopology(nil, &buf); !errors.Is(err, core.ErrInvalidTopology) {
		t.Errorf("write nil: err = %v, want core.ErrInvalidTopology", err)
	}
	if buf.Len() != 0 {
		t.Error("nil topology left bytes on the wire")
	}
}
