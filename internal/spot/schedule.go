package spot

import (
	"fmt"

	"github.com/pubsub-systems/mcss/internal/pricing"
)

// The schedule's two constants.
const (
	// riskPenaltyHours is the expected extra billed hours one reclamation
	// costs (replacement started hour plus migration), priced into the
	// decision fleet's spot rates.
	riskPenaltyHours = 2
	// repriceThresholdFrac quantizes decision-fleet changes: a new epoch's
	// risk-adjusted rates replace the previous decision fleet only when
	// some type's rate moved by at least this fraction, so small price
	// jitter does not force a full re-solve (and a fresh incremental
	// index) every epoch. Billing is never quantized.
	repriceThresholdFrac = 0.05
)

// Schedule is the per-epoch fleet timeline the elastic controller builds
// from a Market (Controller.SetSpotMarket): per epoch it yields the
// decision fleet (base types plus risk-adjusted spot variants, quantized
// by repriceThresholdFrac) and the billing fleet (the same variants at the
// raw epoch spot price). Not safe for concurrent use; a Walk steps epochs
// from one goroutine.
type Schedule struct {
	m    *Market
	base pricing.Fleet

	haveLast bool
	last     pricing.Fleet // previous decision fleet (quantization anchor)
}

// NewSchedule validates the market and binds it to a base on-demand fleet
// whose recorded capacities the spot variants inherit.
func NewSchedule(m *Market, base pricing.Fleet) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if base.IsZero() {
		return nil, fmt.Errorf("%w: empty base fleet", ErrInvalidMarket)
	}
	return &Schedule{m: m, base: base}, nil
}

// FleetAt returns the decision and billing fleets for an epoch. The
// decision fleet is sticky: it only changes when some type's risk-adjusted
// rate drifts past repriceThresholdFrac from the fleet last returned, so
// callers can detect "price epoch" boundaries by comparing successive
// decision fleets (pricing.Fleet is a value; compare with Fleet.Equal).
func (s *Schedule) FleetAt(epoch int) (decision, billing pricing.Fleet, err error) {
	fresh, err := s.m.FleetAt(s.base, epoch, riskPenaltyHours)
	if err != nil {
		return pricing.Fleet{}, pricing.Fleet{}, err
	}
	billing, err = s.m.FleetAt(s.base, epoch, 0)
	if err != nil {
		return pricing.Fleet{}, pricing.Fleet{}, err
	}
	if s.haveLast && maxRateDrift(s.last, fresh) < repriceThresholdFrac {
		return s.last, billing, nil
	}
	s.last, s.haveLast = fresh, true
	return fresh, billing, nil
}

// maxRateDrift reports the largest per-type fractional hourly-rate change
// between two fleets matched by name; structural differences count as
// infinite drift.
func maxRateDrift(old, next pricing.Fleet) float64 {
	if old.Len() != next.Len() {
		return 1e9
	}
	var max float64
	for i := 0; i < next.Len(); i++ {
		it := next.Type(i)
		j := old.IndexByName(it.Name)
		if j < 0 {
			return 1e9
		}
		prev := old.Type(j).HourlyRate
		if prev <= 0 {
			return 1e9
		}
		d := float64(it.HourlyRate-prev) / float64(prev)
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
