// Package spot models a spot capacity market over the MCSS fleet: per-type
// spot price timelines, a per-epoch interruption model with correlated
// AZ-failure groups, and the per-epoch fleets that carry both into the
// solver.
//
// Spot capacity is the same hardware at a 3–10x discount, revocable at the
// provider's whim — so cost minimization becomes a reliability-vs-cost
// trade-off. Following Beaumont et al.'s robust-allocation argument
// (arXiv:1310.5255), replicated work belongs on unreliable machines (a
// reclaimed replica costs only a repair, never delivery) while unreplicated
// work is pinned on on-demand capacity; core's Stage 2 applies that rule
// to any fleet that offers spot types. The interruptible variant of a base
// instance type appears in the fleet as "<base>:spot" (pricing.SpotName)
// with the base type's calibrated capacity, region, and the epoch's spot
// price; DESIGN.md §13 develops the model.
package spot

import (
	"errors"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/pricing"
)

// ErrInvalidMarket is the structural-validity error for market data, the
// analogue of timeline.ErrInvalidTimeline: traceio wraps it for market
// files whose JSON parses but whose content violates the model.
var ErrInvalidMarket = errors.New("spot: invalid market")

// TypePrices is one base instance type's spot market: the per-epoch spot
// price and reclamation probability of its interruptible variant. Series
// shorter than the walked timeline persist their final value.
type TypePrices struct {
	// Base is the on-demand instance type the spot variant discounts.
	Base pricing.InstanceType
	// Prices[e] is the spot price per instance-hour during epoch e.
	Prices []pricing.MicroUSD
	// ReclaimProb[e] is the probability that any one spot VM of this type
	// is reclaimed during epoch e (independently per VM, on top of
	// storms). Values are in [0, 1].
	ReclaimProb []float64
}

// Storm is a correlated mass-reclamation event: at Epoch, every spot VM
// homed in availability zone AZ is reclaimed at once.
type Storm struct {
	Epoch int
	AZ    int
}

// Market is a spot price/interruption trace alongside a workload timeline:
// per-type price and reclamation series on the same epoch grid, plus the
// correlated reclamation storms. The zero Market is invalid; construct the
// fields and Validate, or generate one with tracegen.SpotMarket.
type Market struct {
	// EpochMinutes is the epoch length, matching the workload timeline the
	// market rides alongside.
	EpochMinutes int64
	// NumAZs is the number of availability zones VMs are spread over
	// (VM id mod NumAZs); storms reclaim one zone at a time.
	NumAZs int
	// Types holds one price/reclamation series per base instance type.
	Types []TypePrices
	// Storms lists the correlated mass-reclamation events.
	Storms []Storm
}

// Validate checks structural validity: positive epoch length, at least one
// zone and one type, no duplicate or already-interruptible base types,
// positive prices no higher than on-demand, probabilities in [0, 1], and
// storms referencing existing zones. Violations wrap ErrInvalidMarket.
func (m *Market) Validate() error {
	if m.EpochMinutes <= 0 {
		return fmt.Errorf("%w: epoch minutes %d", ErrInvalidMarket, m.EpochMinutes)
	}
	if m.NumAZs < 1 {
		return fmt.Errorf("%w: %d availability zones", ErrInvalidMarket, m.NumAZs)
	}
	if len(m.Types) == 0 {
		return fmt.Errorf("%w: no instance types", ErrInvalidMarket)
	}
	seen := make(map[string]bool, len(m.Types))
	for i, tp := range m.Types {
		if tp.Base.Name == "" {
			return fmt.Errorf("%w: type %d has no name", ErrInvalidMarket, i)
		}
		if pricing.IsSpot(tp.Base.Name) {
			return fmt.Errorf("%w: base type %q is already interruptible", ErrInvalidMarket, tp.Base.Name)
		}
		if seen[tp.Base.Name] {
			return fmt.Errorf("%w: duplicate base type %q", ErrInvalidMarket, tp.Base.Name)
		}
		seen[tp.Base.Name] = true
		if tp.Base.HourlyRate <= 0 {
			return fmt.Errorf("%w: type %q has on-demand rate %d", ErrInvalidMarket, tp.Base.Name, tp.Base.HourlyRate)
		}
		if len(tp.Prices) == 0 {
			return fmt.Errorf("%w: type %q has no price series", ErrInvalidMarket, tp.Base.Name)
		}
		if len(tp.ReclaimProb) != len(tp.Prices) {
			return fmt.Errorf("%w: type %q has %d prices but %d reclaim probabilities",
				ErrInvalidMarket, tp.Base.Name, len(tp.Prices), len(tp.ReclaimProb))
		}
		for e, p := range tp.Prices {
			if p <= 0 {
				return fmt.Errorf("%w: type %q epoch %d spot price %d", ErrInvalidMarket, tp.Base.Name, e, p)
			}
			if p > tp.Base.HourlyRate {
				return fmt.Errorf("%w: type %q epoch %d spot price %d above on-demand %d",
					ErrInvalidMarket, tp.Base.Name, e, p, tp.Base.HourlyRate)
			}
		}
		for e, p := range tp.ReclaimProb {
			if p < 0 || p > 1 {
				return fmt.Errorf("%w: type %q epoch %d reclaim probability %g", ErrInvalidMarket, tp.Base.Name, e, p)
			}
		}
	}
	for i, s := range m.Storms {
		if s.Epoch < 0 {
			return fmt.Errorf("%w: storm %d at epoch %d", ErrInvalidMarket, i, s.Epoch)
		}
		if s.AZ < 0 || s.AZ >= m.NumAZs {
			return fmt.Errorf("%w: storm %d in zone %d of %d", ErrInvalidMarket, i, s.AZ, m.NumAZs)
		}
	}
	return nil
}

// Epochs reports the longest price series in the market.
func (m *Market) Epochs() int {
	n := 0
	for _, tp := range m.Types {
		if len(tp.Prices) > n {
			n = len(tp.Prices)
		}
	}
	return n
}

// typeByBase returns the series for the named base type, or nil.
func (m *Market) typeByBase(name string) *TypePrices {
	for i := range m.Types {
		if m.Types[i].Base.Name == name {
			return &m.Types[i]
		}
	}
	return nil
}

// clamp indexes a series with last-value persistence beyond its end.
func clamp(e, n int) int {
	if e < 0 {
		return 0
	}
	if e >= n {
		return n - 1
	}
	return e
}

// PriceAt reports the spot price of the named base type during epoch e
// (last value persists past the series end), and whether the market trades
// the type at all.
func (m *Market) PriceAt(base string, e int) (pricing.MicroUSD, bool) {
	tp := m.typeByBase(base)
	if tp == nil || len(tp.Prices) == 0 {
		return 0, false
	}
	return tp.Prices[clamp(e, len(tp.Prices))], true
}

// ReclaimProbAt reports the per-VM reclamation probability of the named
// base type during epoch e (zero for types the market does not trade).
func (m *Market) ReclaimProbAt(base string, e int) float64 {
	tp := m.typeByBase(base)
	if tp == nil || len(tp.ReclaimProb) == 0 {
		return 0
	}
	return tp.ReclaimProb[clamp(e, len(tp.ReclaimProb))]
}

// StormZones reports the availability zones hit by a storm at epoch e.
func (m *Market) StormZones(e int) []int {
	var zones []int
	for _, s := range m.Storms {
		if s.Epoch == e {
			zones = append(zones, s.AZ)
		}
	}
	return zones
}

// FleetAt extends a base on-demand fleet with the market's interruptible
// variants priced for epoch e: each traded base type present in the fleet
// gains a "<base>:spot" twin with the base type's recorded (calibrated or
// derated) capacity and the epoch's spot price, inflated by the expected
// repair overhead when riskPenaltyHours > 0:
//
//	rate = spot × (1 + p·(60/EpochMinutes)·riskPenaltyHours)
//
// where p is the epoch's reclamation probability — a VM that is reclaimed
// costs roughly riskPenaltyHours of extra billed hours (the replacement's
// fresh started hour plus migration transfer), and p·(60/EpochMinutes) is
// the expected reclamations per VM-hour. With riskPenaltyHours == 0 the
// variants carry the raw spot price (the billing fleet). A variant deploys
// into its base type's region. The base fleet's own types pass through
// unchanged.
func (m *Market) FleetAt(base pricing.Fleet, e int, riskPenaltyHours float64) (pricing.Fleet, error) {
	types := base.Types()
	caps := make([]int64, base.Len(), base.Len()+len(m.Types))
	for i := range caps {
		caps[i] = base.Capacity(i)
	}
	perHour := 60.0 / float64(m.EpochMinutes)
	for i := 0; i < base.Len(); i++ {
		it := base.Type(i)
		if pricing.IsSpot(it.Name) {
			continue
		}
		price, ok := m.PriceAt(it.Name, e)
		if !ok {
			continue
		}
		rate := price
		if riskPenaltyHours > 0 {
			p := m.ReclaimProbAt(it.Name, e)
			adj := float64(price) * (1 + p*perHour*riskPenaltyHours)
			rate = pricing.MicroUSD(adj)
		}
		types = append(types, pricing.InstanceType{
			Name:       pricing.SpotName(it.Name),
			HourlyRate: rate,
			LinkMbps:   it.LinkMbps,
			Region:     it.Region,
		})
		caps = append(caps, base.Capacity(i))
	}
	return pricing.NewFleetWithCapacities(types, caps)
}
