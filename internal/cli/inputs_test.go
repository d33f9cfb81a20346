package cli

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/pricing"
)

// LoadTopology replicates the fleet (or the model's single type) into
// every region of a multi-region file and leaves it alone otherwise; an
// SLO ceiling without a topology file is refused.
func TestLoadTopology(t *testing.T) {
	model := pricing.NewModel(pricing.C3Large)
	catalog := pricing.CatalogFleet()
	if topo, fleet, err := LoadTopology("", 0, catalog, model); err != nil || topo != nil || fleet.String() != catalog.String() {
		t.Fatalf("empty path: topology %v, fleet %v, err %v", topo, fleet, err)
	}
	if _, _, err := LoadTopology("", 50, catalog, model); err == nil || !strings.Contains(err.Error(), "-topology") {
		t.Fatalf("SLO without a topology: err %v, want a -topology error", err)
	}
	path := filepath.Join("..", "traceio", "testdata", "topology_v1.json")
	topo, fleet, err := LoadTopology(path, 50, pricing.Fleet{}, model)
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
	if _, _, err := LoadTopology(filepath.Join(t.TempDir(), "missing.json"), 0, catalog, model); err == nil {
		t.Fatal("missing topology file accepted")
	}
}
