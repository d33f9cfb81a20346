package pricing

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestMicroUSDString(t *testing.T) {
	tests := []struct {
		in   MicroUSD
		want string
	}{
		{0, "$0.00"},
		{150_000, "$0.15"},
		{1_000_000, "$1.00"},
		{1_234_567, "$1.23"},
		{-500_000, "-$0.50"},
		{36_000_000, "$36.00"},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("MicroUSD(%d).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestUSD(t *testing.T) {
	if got := MicroUSD(150_000).USD(); got != 0.15 {
		t.Errorf("USD = %v, want 0.15", got)
	}
}

func TestCatalogPaperPrices(t *testing.T) {
	// The two instance types the paper evaluates, with its quoted prices
	// and bandwidth caps.
	tests := []struct {
		it     InstanceType
		name   string
		hourly MicroUSD
		mbps   int64
	}{
		{C3Large, "c3.large", 150_000, 64},
		{C3XLarge, "c3.xlarge", 300_000, 128},
	}
	for _, tc := range tests {
		if tc.it.Name != tc.name || tc.it.HourlyRate != tc.hourly || tc.it.LinkMbps != tc.mbps {
			t.Errorf("instance %v, want {%s %d %d}", tc.it, tc.name, tc.hourly, tc.mbps)
		}
	}
}

func TestByName(t *testing.T) {
	it, ok := ByName("c3.xlarge")
	if !ok || it != C3XLarge {
		t.Errorf("ByName(c3.xlarge) = %v, %v", it, ok)
	}
	if _, ok := ByName("m1.medium"); ok {
		t.Error("ByName(m1.medium) unexpectedly found")
	}
}

func TestCapacityBytesPerHour(t *testing.T) {
	// 64 mbps = 8 MB/s = 28.8 GB/hour.
	if got, want := C3Large.CapacityBytesPerHour(), int64(64*125_000*3600); got != want {
		t.Errorf("capacity = %d, want %d", got, want)
	}
}

func TestCapacityOverride(t *testing.T) {
	m := NewModel(C3Large)
	if got := m.CapacityBytesPerHour(); got != C3Large.CapacityBytesPerHour() {
		t.Errorf("default capacity = %d, want honest value", got)
	}
	m.CapacityOverrideBytesPerHour = 12345
	if got := m.CapacityBytesPerHour(); got != 12345 {
		t.Errorf("override capacity = %d, want 12345", got)
	}
}

func TestVMCost(t *testing.T) {
	m := NewModel(C3Large) // $0.15/h × 240 h = $36 per VM
	tests := []struct {
		n    int
		want MicroUSD
	}{
		{0, 0},
		{1, 36_000_000},
		{10, 360_000_000},
	}
	for _, tc := range tests {
		if got := m.VMCost(tc.n); got != tc.want {
			t.Errorf("VMCost(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestBandwidthCost(t *testing.T) {
	m := NewModel(C3Large)
	tests := []struct {
		bytes int64
		want  MicroUSD
	}{
		{0, 0},
		{-5, 0},
		{GB, 120_000},            // exactly $0.12
		{10 * GB, 1_200_000},     // $1.20
		{GB / 2, 60_000},         // $0.06
		{GB + GB/2, 180_000},     // $0.18
		{1000 * GB, 120_000_000}, // $120
	}
	for _, tc := range tests {
		if got := m.BandwidthCost(tc.bytes); got != tc.want {
			t.Errorf("BandwidthCost(%d) = %v, want %v", tc.bytes, got, tc.want)
		}
	}
}

func TestTotalCost(t *testing.T) {
	m := NewModel(C3XLarge) // $0.30/h × 240h = $72/VM
	got := m.TotalCost(2, 10*GB)
	want := MicroUSD(2*72_000_000 + 1_200_000)
	if got != want {
		t.Errorf("TotalCost = %v, want %v", got, want)
	}
}

func TestTransferBytes(t *testing.T) {
	m := NewModel(C3Large)
	if got, want := m.TransferBytes(1000), int64(240_000); got != want {
		t.Errorf("TransferBytes = %d, want %d", got, want)
	}
}

func TestCatalogMonotone(t *testing.T) {
	cat := Catalog()
	for i := 1; i < len(cat); i++ {
		if cat[i].HourlyRate <= cat[i-1].HourlyRate {
			t.Errorf("catalog price not increasing at %s", cat[i].Name)
		}
		if cat[i].LinkMbps <= cat[i-1].LinkMbps {
			t.Errorf("catalog bandwidth not increasing at %s", cat[i].Name)
		}
	}
}

func TestPropertyBandwidthCostMonotoneAndAdditiveish(t *testing.T) {
	m := NewModel(C3Large)
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		cx, cy := m.BandwidthCost(x), m.BandwidthCost(y)
		// Monotone.
		if x <= y && cx > cy {
			return false
		}
		// Sub-additive error bounded by 1 microdollar (integer floor).
		sum := m.BandwidthCost(x + y)
		diff := int64(cx + cy - sum)
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyVMCostLinear(t *testing.T) {
	m := NewModel(C3Large)
	f := func(n uint8) bool {
		return m.VMCost(int(n)) == MicroUSD(int64(n))*m.VMCost(1) &&
			m.VMCost(int(n)+1)-m.VMCost(int(n)) == m.VMCost(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMicroUSDAddSaturates(t *testing.T) {
	cases := []struct {
		a, b, want MicroUSD
	}{
		{1, 2, 3},
		{-5, 3, -2},
		{MaxMicroUSD, 1, MaxMicroUSD},
		{MaxMicroUSD, MaxMicroUSD, MaxMicroUSD},
		{MinMicroUSD, -1, MinMicroUSD},
		{MinMicroUSD, MinMicroUSD, MinMicroUSD},
		{MaxMicroUSD, MinMicroUSD, -1}, // exact, no overflow
		{MaxMicroUSD - 10, 10, MaxMicroUSD},
		{MaxMicroUSD - 10, 11, MaxMicroUSD},
	}
	for _, c := range cases {
		if got := c.a.Add(c.b); got != c.want {
			t.Errorf("(%d).Add(%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMicroUSDMulSaturates(t *testing.T) {
	cases := []struct {
		m    MicroUSD
		n    int64
		want MicroUSD
	}{
		{3, 4, 12},
		{-3, 4, -12},
		{3, -4, -12},
		{-3, -4, 12},
		{0, 1 << 62, 0},
		{1 << 62, 0, 0},
		{MaxMicroUSD, 2, MaxMicroUSD},
		{MaxMicroUSD, -2, MinMicroUSD},
		{MinMicroUSD, 2, MinMicroUSD},
		{MinMicroUSD, -1, MaxMicroUSD}, // the one case division can't detect
		{MinMicroUSD, -2, MaxMicroUSD},
		{1 << 32, 1 << 32, MaxMicroUSD},
		{-(1 << 32), 1 << 32, MinMicroUSD},
		{MaxMicroUSD, 1, MaxMicroUSD},
		{MinMicroUSD, 1, MinMicroUSD},
	}
	for _, c := range cases {
		if got := c.m.Mul(c.n); got != c.want {
			t.Errorf("(%d).Mul(%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

func TestPropertyMicroUSDArithmeticMatchesBigInt(t *testing.T) {
	f := func(a, b int64) bool {
		sum := new(big.Int).Add(big.NewInt(a), big.NewInt(b))
		wantAdd := clampBig(sum)
		if got := MicroUSD(a).Add(MicroUSD(b)); got != wantAdd {
			return false
		}
		prod := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		wantMul := clampBig(prod)
		return MicroUSD(a).Mul(b) == wantMul
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func clampBig(v *big.Int) MicroUSD {
	if v.Cmp(big.NewInt(int64(MaxMicroUSD))) > 0 {
		return MaxMicroUSD
	}
	if v.Cmp(big.NewInt(int64(MinMicroUSD))) < 0 {
		return MinMicroUSD
	}
	return MicroUSD(v.Int64())
}

func TestSpotNames(t *testing.T) {
	if got := SpotName("c3.large"); got != "c3.large:spot" {
		t.Fatalf("SpotName = %q", got)
	}
	if !IsSpot("c3.large:spot") || IsSpot("c3.large") {
		t.Fatal("IsSpot misclassifies")
	}
	if got := BaseName("c3.large:spot"); got != "c3.large" {
		t.Fatalf("BaseName = %q", got)
	}
}
