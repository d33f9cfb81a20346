// Package pricing implements the Amazon EC2 cost model the MCSS paper uses
// (§IV-A): on-demand compute-optimized instances rented by the hour (cost
// function C1) plus data transfer charged per GB in both directions (cost
// function C2).
//
// All money is integer micro-dollars so that cost comparisons inside the
// solver are exact and deterministic; all capacities are integer bytes per
// hour. The catalog reproduces the 2014 prices the paper quotes: c3.large at
// $0.15/h with a 64 mbps bandwidth cap, c3.xlarge at $0.30/h with 128 mbps,
// and $0.12/GB transfer in each direction.
package pricing

import (
	"fmt"
	"strings"
)

// MicroUSD is an amount of money in 1e-6 US dollars.
type MicroUSD int64

// MaxMicroUSD and MinMicroUSD are the saturation bounds of MicroUSD
// arithmetic (~±9.2 trillion dollars).
const (
	MaxMicroUSD MicroUSD = 1<<63 - 1
	MinMicroUSD MicroUSD = -1 << 63
)

// USD converts to floating-point dollars for display.
func (m MicroUSD) USD() float64 { return float64(m) / 1e6 }

// Add returns m+o, saturating at the MicroUSD range bounds instead of
// wrapping — a billing ledger summing many rentals must never flip sign.
func (m MicroUSD) Add(o MicroUSD) MicroUSD {
	s := m + o
	// Overflow iff both operands share a sign the sum does not.
	if (m > 0 && o > 0 && s < 0) || (m < 0 && o < 0 && s >= 0) {
		if m > 0 {
			return MaxMicroUSD
		}
		return MinMicroUSD
	}
	return s
}

// Mul returns m×n, saturating at the MicroUSD range bounds instead of
// wrapping.
func (m MicroUSD) Mul(n int64) MicroUSD {
	if m == 0 || n == 0 {
		return 0
	}
	p := MicroUSD(int64(m) * n)
	// Division round-trips exactly unless the product overflowed; the one
	// case division cannot detect is MinMicroUSD × −1.
	if (m == MinMicroUSD && n == -1) || int64(p)/n != int64(m) {
		if (m > 0) == (n > 0) {
			return MaxMicroUSD
		}
		return MinMicroUSD
	}
	return p
}

// String renders the amount as dollars, e.g. "$12.34".
func (m MicroUSD) String() string {
	sign := ""
	v := m
	if v < 0 {
		sign = "-"
		v = -v
	}
	return fmt.Sprintf("%s$%d.%02d", sign, v/1e6, (v%1e6)/1e4)
}

// MarshalText implements encoding.TextMarshaler: the amount as a plain
// decimal USD string ("12.34", "-0.000001", "0") with trailing fractional
// zeros trimmed — the wire form the plan file format and reports use.
func (m MicroUSD) MarshalText() ([]byte, error) {
	if m == MinMicroUSD {
		// −m overflows; the bound is a fixed string.
		return []byte("-9223372036854.775808"), nil
	}
	sign := ""
	v := m
	if v < 0 {
		sign = "-"
		v = -v
	}
	whole, frac := v/1e6, v%1e6
	if frac == 0 {
		return []byte(fmt.Sprintf("%s%d", sign, whole)), nil
	}
	s := strings.TrimRight(fmt.Sprintf("%06d", frac), "0")
	return []byte(fmt.Sprintf("%s%d.%s", sign, whole, s)), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. It parses a decimal
// USD string — optional sign, integer dollars, optionally a '.' and up to
// six fractional digits (micro-dollar resolution) — and saturates at the
// MicroUSD range bounds instead of failing on overflow, matching the
// saturating Add/Mul arithmetic. Exponents, currency symbols, grouping,
// and sub-microdollar digits are rejected.
func (m *MicroUSD) UnmarshalText(b []byte) error {
	s := string(b)
	rest := s
	neg := false
	switch {
	case strings.HasPrefix(rest, "-"):
		neg, rest = true, rest[1:]
	case strings.HasPrefix(rest, "+"):
		rest = rest[1:]
	}
	intPart := rest
	fracPart := ""
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		intPart, fracPart = rest[:i], rest[i+1:]
	}
	if intPart == "" && fracPart == "" {
		return fmt.Errorf("pricing: malformed money %q", s)
	}
	if len(fracPart) > 6 {
		return fmt.Errorf("pricing: money %q has sub-microdollar precision", s)
	}
	const limit = uint64(1) << 63 // |MinMicroUSD|; MaxMicroUSD is limit-1
	var micro uint64
	saturated := false
	digits := intPart + fracPart + strings.Repeat("0", 6-len(fracPart))
	for _, c := range digits {
		if c < '0' || c > '9' {
			return fmt.Errorf("pricing: malformed money %q", s)
		}
		if saturated {
			continue
		}
		d := uint64(c - '0')
		if micro > (limit-d)/10 {
			saturated = true
			continue
		}
		micro = micro*10 + d
	}
	switch {
	case saturated || (neg && micro > limit) || (!neg && micro > limit-1):
		if neg {
			*m = MinMicroUSD
		} else {
			*m = MaxMicroUSD
		}
	case neg && micro == limit:
		*m = MinMicroUSD
	case neg:
		*m = -MicroUSD(micro)
	default:
		*m = MicroUSD(micro)
	}
	return nil
}

// MarshalJSON implements json.Marshaler: the decimal USD string, quoted.
// Serializing money as a string keeps micro-dollar exactness out of
// float64 territory and reads naturally in plan files under review.
func (m MicroUSD) MarshalJSON() ([]byte, error) {
	t, err := m.MarshalText()
	if err != nil {
		return nil, err
	}
	return []byte(`"` + string(t) + `"`), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting both the canonical
// quoted decimal string and a bare JSON number (which must still be a
// plain decimal — exponents are rejected like any other malformed money).
func (m *MicroUSD) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	return m.UnmarshalText([]byte(s))
}

// GB is the decimal gigabyte IaaS billing prices transfer by.
const GB int64 = 1e9

// InstanceType describes one rentable VM flavor.
type InstanceType struct {
	// Name is the provider SKU, e.g. "c3.large".
	Name string
	// HourlyRate is the on-demand price per instance-hour.
	HourlyRate MicroUSD
	// LinkMbps is the instance's network bandwidth cap in megabits/s
	// (incoming plus outgoing combined, per the paper's simplification).
	LinkMbps int64
	// Region names the region this flavor deploys into. Empty means
	// region-agnostic (the paper's single-region setting): such a type is
	// treated as living in the topology's home region (index 0) by Stage
	// 2's region routing and incurs no egress by itself.
	Region string
}

// CapacityBytesPerHour converts the instance's link speed to bytes per hour:
// 1 mbps = 125 000 bytes/s.
func (it InstanceType) CapacityBytesPerHour() int64 {
	return it.LinkMbps * 125_000 * 3600
}

// spotSuffix marks the interruptible (spot) fleet variant of a base
// instance type.
const spotSuffix = ":spot"

// SpotName returns the fleet name of the interruptible variant of a base
// instance type.
func SpotName(base string) string { return base + spotSuffix }

// IsSpot reports whether a fleet type name denotes interruptible capacity.
func IsSpot(name string) bool { return strings.HasSuffix(name, spotSuffix) }

// BaseName strips the interruptible marker, returning the base type name
// unchanged for on-demand types.
func BaseName(name string) string { return strings.TrimSuffix(name, spotSuffix) }

// The 2014 compute-optimized catalog used in the paper's evaluation. The
// paper gives prices and bandwidth caps for c3.large and c3.xlarge; the
// larger sizes follow Amazon's published doubling of price per size step and
// are provided for the capacity-planner example.
var (
	C3Large   = InstanceType{Name: "c3.large", HourlyRate: 150_000, LinkMbps: 64}
	C3XLarge  = InstanceType{Name: "c3.xlarge", HourlyRate: 300_000, LinkMbps: 128}
	C32XLarge = InstanceType{Name: "c3.2xlarge", HourlyRate: 600_000, LinkMbps: 256}
	C34XLarge = InstanceType{Name: "c3.4xlarge", HourlyRate: 1_200_000, LinkMbps: 512}
	C38XLarge = InstanceType{Name: "c3.8xlarge", HourlyRate: 2_400_000, LinkMbps: 1024}
)

// Catalog lists every known instance type, smallest first.
func Catalog() []InstanceType {
	return []InstanceType{C3Large, C3XLarge, C32XLarge, C34XLarge, C38XLarge}
}

// ByName looks an instance type up in the catalog.
func ByName(name string) (InstanceType, bool) {
	for _, it := range Catalog() {
		if it.Name == name {
			return it, true
		}
	}
	return InstanceType{}, false
}

// DefaultBandwidthPerGB is the paper's $0.12/GB transfer price (same price
// assumed for incoming and outgoing, §II-B).
const DefaultBandwidthPerGB MicroUSD = 120_000

// Model is a concrete instantiation of the paper's cost functions C1 and C2:
// a chosen instance type, a rental duration, and a transfer price.
// The zero value is not useful; construct with NewModel.
type Model struct {
	// Instance is the VM flavor every broker runs on (the paper provisions
	// homogeneous fleets per experiment).
	Instance InstanceType
	// Hours is the rental duration all VM costs are computed for. The
	// paper's traces cover 10 days, i.e. 240 hours.
	Hours int64
	// PerGB is the data-transfer price per decimal GB, applied to the sum
	// of incoming and outgoing bytes.
	PerGB MicroUSD
	// CapacityOverrideBytesPerHour, when non-zero, replaces the honest
	// mbps-derived per-VM capacity. The paper's reported VM counts are not
	// reachable with the honest conversion (see DESIGN.md §3); experiments
	// use this knob to operate in the same many-VM regime.
	CapacityOverrideBytesPerHour int64
}

// NewModel returns a Model with the paper's defaults: the given instance
// type, a 240-hour (10-day) rental, and $0.12/GB transfer.
func NewModel(it InstanceType) Model {
	return Model{Instance: it, Hours: 240, PerGB: DefaultBandwidthPerGB}
}

// CapacityBytesPerHour reports the per-VM bandwidth capacity BC used for
// packing, honoring the override when set.
func (m Model) CapacityBytesPerHour() int64 {
	if m.CapacityOverrideBytesPerHour != 0 {
		return m.CapacityOverrideBytesPerHour
	}
	return m.Instance.CapacityBytesPerHour()
}

// VMCost is the paper's C1: the cost of renting n VMs for the model's
// rental duration.
func (m Model) VMCost(n int) MicroUSD {
	return MicroUSD(int64(n) * m.Hours * int64(m.Instance.HourlyRate))
}

// BandwidthCost is the paper's C2: the cost of transferring the given number
// of bytes (incoming plus outgoing) at the per-GB price. The division is
// carried out in integer arithmetic without overflow for any realistic
// byte count (up to ~7.6e16 bytes at $0.12/GB).
func (m Model) BandwidthCost(bytes int64) MicroUSD {
	return BandwidthCost(m.PerGB, bytes)
}

// BandwidthCost prices a transfer volume at perGB per decimal GB — the
// model-free form used by the elastic billing ledger. Every step saturates
// rather than wrapping, and the result is exact whenever nothing saturates:
// the fractional-GB part is split so no intermediate product can exceed
// the representable range at realistic prices.
func BandwidthCost(perGB MicroUSD, bytes int64) MicroUSD {
	if bytes <= 0 || perGB <= 0 {
		return 0
	}
	whole := bytes / GB
	rem := bytes % GB
	// rem·perGB/GB, computed as (perGB/GB)·rem + (perGB%GB)·rem/GB: the
	// second product stays below 1e18 because both factors are < 1e9.
	remCost := MicroUSD(int64(perGB) / GB).Mul(rem).
		Add(MicroUSD((int64(perGB) % GB) * rem / GB))
	return perGB.Mul(whole).Add(remCost)
}

// TotalCost is C1(n) + C2(bytes).
func (m Model) TotalCost(n int, bytes int64) MicroUSD {
	return m.VMCost(n) + m.BandwidthCost(bytes)
}

// TransferBytes converts a sustained rate in bytes/hour into total bytes
// over the model's rental duration, which is what C2 bills for.
func (m Model) TransferBytes(bytesPerHour int64) int64 {
	return bytesPerHour * m.Hours
}
