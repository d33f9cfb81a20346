package pricing

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Fleet is an ordered set of rentable instance types with their effective
// per-VM capacities — the heterogeneous generalization of packing against a
// single Model instance. Types are kept sorted by capacity ascending (ties
// by hourly rate, then name), so "the smallest type that fits" and "the
// largest type" are positional queries.
//
// Capacities default to the honest mbps-derived conversion of each type;
// WithBytesPerMbps substitutes a calibrated bytes-per-mbps scale, the
// fleet-wide analogue of Model.CapacityOverrideBytesPerHour (see DESIGN.md
// §3). The zero Fleet is empty; construct with NewFleet or CatalogFleet.
type Fleet struct {
	types []InstanceType
	caps  []int64
}

// NewFleet builds a fleet from the given instance types with their honest
// mbps-derived capacities. It rejects an empty type list, duplicate type
// names, and types without positive capacity.
func NewFleet(types ...InstanceType) (Fleet, error) {
	if len(types) == 0 {
		return Fleet{}, fmt.Errorf("pricing: fleet needs at least one instance type")
	}
	seen := make(map[string]bool, len(types))
	f := Fleet{
		types: make([]InstanceType, len(types)),
		caps:  make([]int64, len(types)),
	}
	copy(f.types, types)
	for i, it := range f.types {
		if it.CapacityBytesPerHour() <= 0 {
			return Fleet{}, fmt.Errorf("pricing: instance %q has no positive capacity", it.Name)
		}
		if seen[it.Name] {
			return Fleet{}, fmt.Errorf("pricing: duplicate instance type %q in fleet", it.Name)
		}
		seen[it.Name] = true
		f.caps[i] = it.CapacityBytesPerHour()
	}
	f.sort()
	return f, nil
}

// NewFleetWithCapacities builds a fleet whose per-VM capacities are given
// explicitly instead of mbps-derived — the deserialization path for plan
// files, which must reconstruct calibrated (overridden or headroom-derated)
// fleets exactly as recorded. caps must parallel types; every capacity must
// be positive.
func NewFleetWithCapacities(types []InstanceType, caps []int64) (Fleet, error) {
	if len(types) == 0 {
		return Fleet{}, fmt.Errorf("pricing: fleet needs at least one instance type")
	}
	if len(caps) != len(types) {
		return Fleet{}, fmt.Errorf("pricing: %d capacities for %d instance types", len(caps), len(types))
	}
	seen := make(map[string]bool, len(types))
	f := Fleet{
		types: make([]InstanceType, len(types)),
		caps:  make([]int64, len(caps)),
	}
	copy(f.types, types)
	copy(f.caps, caps)
	for i, it := range f.types {
		if f.caps[i] <= 0 {
			return Fleet{}, fmt.Errorf("pricing: instance %q has no positive capacity", it.Name)
		}
		if seen[it.Name] {
			return Fleet{}, fmt.Errorf("pricing: duplicate instance type %q in fleet", it.Name)
		}
		seen[it.Name] = true
	}
	f.sort()
	return f, nil
}

// CatalogFleet returns the fleet of every known instance type.
func CatalogFleet() Fleet {
	f, err := NewFleet(Catalog()...)
	if err != nil {
		panic(err) // the built-in catalog is always valid
	}
	return f
}

// sort orders types by capacity ascending, ties by rate then name, keeping
// caps parallel.
func (f *Fleet) sort() {
	idx := make([]int, len(f.types))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if f.caps[a] != f.caps[b] {
			return cmp.Compare(f.caps[a], f.caps[b])
		}
		if f.types[a].HourlyRate != f.types[b].HourlyRate {
			return cmp.Compare(f.types[a].HourlyRate, f.types[b].HourlyRate)
		}
		return cmp.Compare(f.types[a].Name, f.types[b].Name)
	})
	types := make([]InstanceType, len(f.types))
	caps := make([]int64, len(f.caps))
	for a, i := range idx {
		types[a] = f.types[i]
		caps[a] = f.caps[i]
	}
	f.types, f.caps = types, caps
}

// Len reports the number of instance types.
func (f Fleet) Len() int { return len(f.types) }

// IsZero reports whether the fleet is the empty zero value.
func (f Fleet) IsZero() bool { return len(f.types) == 0 }

// Equal reports whether two fleets list identical types (names, rates,
// regions) with identical capacities, in the same order — how the elastic
// controller tells a repriced decision fleet from the one it holds.
func (f Fleet) Equal(g Fleet) bool {
	return slices.Equal(f.types, g.types) && slices.Equal(f.caps, g.caps)
}

// Type returns the i-th instance type (capacity ascending).
func (f Fleet) Type(i int) InstanceType { return f.types[i] }

// Capacity returns the effective per-VM capacity of the i-th type in
// bytes/hour.
func (f Fleet) Capacity(i int) int64 { return f.caps[i] }

// Types returns a copy of the type list, capacity ascending.
func (f Fleet) Types() []InstanceType {
	out := make([]InstanceType, len(f.types))
	copy(out, f.types)
	return out
}

// MaxCapacity reports the largest per-VM capacity, or 0 for an empty fleet.
func (f Fleet) MaxCapacity() int64 {
	if len(f.caps) == 0 {
		return 0
	}
	return f.caps[len(f.caps)-1]
}

// MinHourlyRate reports the cheapest hourly rate in the fleet, or 0 for an
// empty fleet.
func (f Fleet) MinHourlyRate() MicroUSD {
	var min MicroUSD
	for i, it := range f.types {
		if i == 0 || it.HourlyRate < min {
			min = it.HourlyRate
		}
	}
	return min
}

// IndexByName returns the position of the named type, or -1.
func (f Fleet) IndexByName(name string) int {
	for i, it := range f.types {
		if it.Name == name {
			return i
		}
	}
	return -1
}

// CapacityOf returns the effective capacity recorded for the named type,
// or 0 when the type is not in the fleet.
func (f Fleet) CapacityOf(name string) int64 {
	if i := f.IndexByName(name); i >= 0 {
		return f.caps[i]
	}
	return 0
}

// Single returns the one-type fleet of the i-th type, preserving its
// effective capacity.
func (f Fleet) Single(i int) Fleet {
	return Fleet{types: []InstanceType{f.types[i]}, caps: []int64{f.caps[i]}}
}

// Filter returns the fleet of the types keep accepts, with their recorded
// capacities, in fleet order; the zero Fleet when it accepts none.
func (f Fleet) Filter(keep func(InstanceType) bool) Fleet {
	var out Fleet
	for i, it := range f.types {
		if keep(it) {
			out.types = append(out.types, it)
			out.caps = append(out.caps, f.caps[i])
		}
	}
	return out
}

// WithBytesPerMbps returns a copy whose per-VM capacities are
// bytesPerMbps × LinkMbps for every type — capacities stay proportional to
// link speed, as in the paper's c3.large vs c3.xlarge comparison, but on a
// calibrated scale. Non-positive scales leave the fleet unchanged.
func (f Fleet) WithBytesPerMbps(bytesPerMbps int64) Fleet {
	if bytesPerMbps <= 0 || f.IsZero() {
		return f
	}
	out := Fleet{
		types: append([]InstanceType(nil), f.types...),
		caps:  make([]int64, len(f.caps)),
	}
	for i, it := range out.types {
		out.caps[i] = bytesPerMbps * it.LinkMbps
	}
	out.sort()
	return out
}

// WithCapacityScale returns a copy whose per-VM capacities are scaled by
// frac — the elastic controller's headroom derate: packing against
// capacity × (1−headroom) leaves room for intra-epoch rate drift while the
// true capacity still bounds validity. Capacities are floored at 1 so a
// tiny frac cannot zero a type out; non-positive fracs leave the fleet
// unchanged.
func (f Fleet) WithCapacityScale(frac float64) Fleet {
	if frac <= 0 || f.IsZero() {
		return f
	}
	out := Fleet{
		types: append([]InstanceType(nil), f.types...),
		caps:  make([]int64, len(f.caps)),
	}
	for i, c := range f.caps {
		scaled := int64(float64(c) * frac)
		if scaled < 1 {
			scaled = 1
		}
		out.caps[i] = scaled
	}
	out.sort()
	return out
}

// String renders the fleet as "c3.large+c3.xlarge+…".
func (f Fleet) String() string {
	if f.IsZero() {
		return "(empty fleet)"
	}
	names := make([]string, len(f.types))
	for i, it := range f.types {
		names[i] = it.Name
	}
	return strings.Join(names, "+")
}

// SingleFleet returns the one-type fleet of the model's instance at the
// model's effective capacity (honoring CapacityOverrideBytesPerHour) — the
// bridge that keeps single-type configurations working unchanged on the
// fleet-aware solver.
func (m Model) SingleFleet() Fleet {
	return Fleet{
		types: []InstanceType{m.Instance},
		caps:  []int64{m.CapacityBytesPerHour()},
	}
}

// FleetOr returns f when it is non-empty and the model's single-type fleet
// otherwise.
func (m Model) FleetOr(f Fleet) Fleet {
	if !f.IsZero() {
		return f
	}
	return m.SingleFleet()
}

// InstanceVMCost is the heterogeneous generalization of C1: the cost of
// renting n VMs of the given type for the model's rental duration. The
// model's own Instance is ignored; only Hours matters.
func (m Model) InstanceVMCost(it InstanceType, n int) MicroUSD {
	return MicroUSD(int64(n) * m.Hours * int64(it.HourlyRate))
}
