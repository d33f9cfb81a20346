package pricing

import (
	"strings"
	"testing"
)

func TestNewFleetSortsByCapacity(t *testing.T) {
	f, err := NewFleet(C38XLarge, C3Large, C32XLarge)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	wantOrder := []string{"c3.large", "c3.2xlarge", "c3.8xlarge"}
	for i, name := range wantOrder {
		if f.Type(i).Name != name {
			t.Errorf("Type(%d) = %s, want %s", i, f.Type(i).Name, name)
		}
	}
	for i := 1; i < f.Len(); i++ {
		if f.Capacity(i) < f.Capacity(i-1) {
			t.Errorf("capacities not ascending: %d before %d", f.Capacity(i-1), f.Capacity(i))
		}
	}
	if f.Capacity(0) != C3Large.CapacityBytesPerHour() {
		t.Errorf("smallest capacity = %d", f.Capacity(0))
	}
	if f.MaxCapacity() != C38XLarge.CapacityBytesPerHour() {
		t.Errorf("MaxCapacity = %d", f.MaxCapacity())
	}
}

func TestNewFleetRejectsBadInput(t *testing.T) {
	if _, err := NewFleet(); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewFleet(C3Large, C3Large); err == nil {
		t.Error("duplicate type accepted")
	}
	if _, err := NewFleet(InstanceType{Name: "zero", HourlyRate: 1}); err == nil {
		t.Error("zero-capacity type accepted")
	}
}

func TestCatalogFleet(t *testing.T) {
	f := CatalogFleet()
	if f.Len() != len(Catalog()) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(Catalog()))
	}
	if f.MinHourlyRate() != C3Large.HourlyRate {
		t.Errorf("MinHourlyRate = %v", f.MinHourlyRate())
	}
	if got := f.IndexByName("c3.xlarge"); got != 1 {
		t.Errorf("IndexByName(c3.xlarge) = %d, want 1", got)
	}
	if got := f.IndexByName("m5.mega"); got != -1 {
		t.Errorf("IndexByName(unknown) = %d, want -1", got)
	}
	if got := f.CapacityOf("c3.large"); got != C3Large.CapacityBytesPerHour() {
		t.Errorf("CapacityOf(c3.large) = %d", got)
	}
	if got := f.CapacityOf("nope"); got != 0 {
		t.Errorf("CapacityOf(unknown) = %d, want 0", got)
	}
	if !strings.Contains(f.String(), "c3.large+") {
		t.Errorf("String = %q", f.String())
	}
}

func TestFleetWithBytesPerMbps(t *testing.T) {
	f := CatalogFleet().WithBytesPerMbps(1000)
	for i := 0; i < f.Len(); i++ {
		if got, want := f.Capacity(i), 1000*f.Type(i).LinkMbps; got != want {
			t.Errorf("%s capacity = %d, want %d", f.Type(i).Name, got, want)
		}
	}
	// The xlarge-to-large capacity ratio must stay 2:1, as in the paper.
	if f.CapacityOf("c3.xlarge") != 2*f.CapacityOf("c3.large") {
		t.Error("capacity scaling broke the 2:1 link-speed ratio")
	}
	// Non-positive scale leaves the fleet unchanged.
	g := CatalogFleet().WithBytesPerMbps(0)
	if g.Capacity(0) != CatalogFleet().Capacity(0) {
		t.Error("zero scale modified capacities")
	}
}

func TestFleetSingle(t *testing.T) {
	f := CatalogFleet().WithBytesPerMbps(500)
	s := f.Single(2)
	if s.Len() != 1 || s.Type(0) != f.Type(2) || s.Capacity(0) != f.Capacity(2) {
		t.Errorf("Single(2) = %v", s)
	}
}

func TestModelSingleFleetHonorsOverride(t *testing.T) {
	m := NewModel(C3Large)
	m.CapacityOverrideBytesPerHour = 12345
	f := m.SingleFleet()
	if f.Len() != 1 || f.Capacity(0) != 12345 || f.Type(0) != C3Large {
		t.Errorf("SingleFleet = %v caps %d", f.Types(), f.Capacity(0))
	}
	if got := m.FleetOr(Fleet{}); got.Capacity(0) != 12345 {
		t.Error("FleetOr(zero) did not fall back to the single fleet")
	}
	cat := CatalogFleet()
	if got := m.FleetOr(cat); got.Len() != cat.Len() {
		t.Error("FleetOr(non-zero) did not keep the given fleet")
	}
}

func TestInstanceVMCost(t *testing.T) {
	m := NewModel(C3Large) // 240 h
	if got, want := m.InstanceVMCost(C3XLarge, 2), MicroUSD(2*240*300_000); got != want {
		t.Errorf("InstanceVMCost = %v, want %v", got, want)
	}
	// The model's own instance is irrelevant.
	if m.InstanceVMCost(C3Large, 1) != m.VMCost(1) {
		t.Error("single-type InstanceVMCost disagrees with VMCost")
	}
}

func TestZeroFleet(t *testing.T) {
	var f Fleet
	if !f.IsZero() || f.Len() != 0 || f.MaxCapacity() != 0 {
		t.Errorf("zero fleet misbehaves: %v", f)
	}
	if f.String() != "(empty fleet)" {
		t.Errorf("String = %q", f.String())
	}
}

func TestFleetFilter(t *testing.T) {
	f, err := NewFleetWithCapacities([]InstanceType{C3XLarge, C3Large, C32XLarge}, []int64{20, 10, 40})
	if err != nil {
		t.Fatal(err)
	}
	big := f.Filter(func(it InstanceType) bool { return it.Name != "c3.large" })
	if big.String() != "c3.xlarge+c3.2xlarge" || big.Capacity(0) != 20 || big.Capacity(1) != 40 {
		t.Fatalf("Filter kept %v with capacities %d, %d", big, big.Capacity(0), big.Capacity(1))
	}
	if none := f.Filter(func(InstanceType) bool { return false }); !none.IsZero() {
		t.Fatalf("Filter accepting nothing = %v, want the zero fleet", none)
	}
}
