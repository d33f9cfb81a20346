package cli

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// LoadTopology refuses an SLO ceiling without a topology file, and
// RegionalFleet replicates the fleet (or the model's single type) into
// every region of a multi-region topology and leaves it alone otherwise.
func TestLoadTopology(t *testing.T) {
	model := pricing.NewModel(pricing.C3Large)
	catalog := pricing.CatalogFleet()
	topo, err := LoadTopology("", 0)
	if err != nil || topo != nil {
		t.Fatalf("empty path: topology %v, err %v", topo, err)
	}
	if fleet, err := RegionalFleet(topo, catalog, model); err != nil || fleet.String() != catalog.String() {
		t.Fatalf("no topology: fleet %v, err %v", fleet, err)
	}
	if _, err := LoadTopology("", 50); err == nil || !strings.Contains(err.Error(), "-topology") {
		t.Fatalf("SLO without a topology: err %v, want a -topology error", err)
	}
	topo, err = LoadTopology(filepath.Join("..", "traceio", "testdata", "topology_v1.json"), 50)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := RegionalFleet(topo, pricing.Fleet{}, model)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumRegions() != 3 || fleet.Len() != 3 {
		t.Fatalf("%d regions, regional fleet %v", topo.NumRegions(), fleet)
	}
	for i := 0; i < fleet.Len(); i++ {
		if it := fleet.Type(i); topo.RegionIndex(it.Region) < 0 || pricing.IsSpot(it.Name) {
			t.Fatalf("regional type %+v", it)
		}
	}
	if fleet, err := RegionalFleet(core.SyntheticTopology(1), catalog, model); err != nil || fleet.String() != catalog.String() {
		t.Fatalf("single region: fleet %v, err %v", fleet, err)
	}
	if _, err := LoadTopology(filepath.Join(t.TempDir(), "missing.json"), 0); err == nil {
		t.Fatal("missing topology file accepted")
	}
}
