package spot

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pubsub-systems/mcss/internal/pricing"
)

// MarketConfig parameterizes the spot price/interruption trace
// generator: per base type, a mean-reverting log random walk around a
// deep discount of the on-demand rate, volatility spikes that push prices
// (and reclamation risk) up for a few epochs, and seeded reclamation
// storms that take out one availability zone at a time. Start from
// DefaultMarketConfig and override.
type MarketConfig struct {
	// Epochs is the trace length (default 24) and EpochMinutes the epoch
	// duration (default 60) — match the workload timeline.
	Epochs       int
	EpochMinutes int64
	// NumAZs is the number of availability zones (default 3).
	NumAZs int
	// DiscountFrac is the mean spot price as a fraction of on-demand
	// (default 0.30 — the classic 70% discount).
	DiscountFrac float64
	// Volatility is the per-epoch σ of the price's log random walk
	// (default 0.12); Reversion pulls log-price back toward the discount
	// mean (default 0.35 per epoch).
	Volatility, Reversion float64
	// SpikeProb is the per-epoch probability a demand spike starts
	// (default 0.04); a spike multiplies the price by SpikeFactor
	// (default 2.5, capped at on-demand) for SpikeEpochs epochs
	// (default 2).
	SpikeProb   float64
	SpikeFactor float64
	SpikeEpochs int
	// BaseReclaimProb is the per-VM-per-epoch reclamation probability at
	// the mean price (default 0.02). Reclamation risk scales with price
	// pressure — at spike prices it approaches SpikeReclaimProb
	// (default 0.25).
	BaseReclaimProb  float64
	SpikeReclaimProb float64
	// Storms is the number of correlated mass-reclamation events placed
	// uniformly over the horizon's second half (default 1), each hitting
	// one random zone.
	Storms int
	// Seed makes the trace deterministic.
	Seed int64
}

// DefaultMarketConfig returns the default spot trace: 24 hourly
// epochs, 3 zones, a 70% mean discount with mild volatility, rare 2.5×
// spikes, 2% baseline reclamation risk, and one reclamation storm in the
// second half of the day.
func DefaultMarketConfig() MarketConfig {
	return MarketConfig{
		Epochs:           24,
		EpochMinutes:     60,
		NumAZs:           3,
		DiscountFrac:     0.30,
		Volatility:       0.12,
		Reversion:        0.35,
		SpikeProb:        0.04,
		SpikeFactor:      2.5,
		SpikeEpochs:      2,
		BaseReclaimProb:  0.02,
		SpikeReclaimProb: 0.25,
		Storms:           1,
		Seed:             17,
	}
}

func (c MarketConfig) withDefaults() MarketConfig {
	d := DefaultMarketConfig()
	if c.Epochs == 0 {
		c.Epochs = d.Epochs
	}
	if c.EpochMinutes == 0 {
		c.EpochMinutes = d.EpochMinutes
	}
	if c.NumAZs == 0 {
		c.NumAZs = d.NumAZs
	}
	if c.DiscountFrac == 0 {
		c.DiscountFrac = d.DiscountFrac
	}
	if c.Volatility == 0 {
		c.Volatility = d.Volatility
	}
	if c.Reversion == 0 {
		c.Reversion = d.Reversion
	}
	if c.SpikeFactor == 0 {
		c.SpikeFactor = d.SpikeFactor
	}
	if c.SpikeEpochs == 0 {
		c.SpikeEpochs = d.SpikeEpochs
	}
	if c.BaseReclaimProb == 0 {
		c.BaseReclaimProb = d.BaseReclaimProb
	}
	if c.SpikeReclaimProb == 0 {
		c.SpikeReclaimProb = d.SpikeReclaimProb
	}
	return c
}

// GenerateMarket generates a market trace for every type of the base fleet
// (interruptible variants already present are skipped). Each type walks
// its own price path from the shared seeded stream, so traces are
// deterministic per (fleet, config).
func GenerateMarket(base pricing.Fleet, cfg MarketConfig) (*Market, error) {
	cfg = cfg.withDefaults()
	if base.IsZero() {
		return nil, fmt.Errorf("spot: spot market needs a non-empty base fleet")
	}
	if cfg.Epochs <= 0 || cfg.EpochMinutes <= 0 {
		return nil, fmt.Errorf("spot: need positive Epochs (%d) and EpochMinutes (%d)", cfg.Epochs, cfg.EpochMinutes)
	}
	if cfg.DiscountFrac <= 0 || cfg.DiscountFrac >= 1 {
		return nil, fmt.Errorf("spot: DiscountFrac %v outside (0, 1)", cfg.DiscountFrac)
	}
	if cfg.BaseReclaimProb < 0 || cfg.BaseReclaimProb > 1 ||
		cfg.SpikeReclaimProb < 0 || cfg.SpikeReclaimProb > 1 {
		return nil, fmt.Errorf("spot: reclamation probabilities outside [0, 1]")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Market{
		EpochMinutes: cfg.EpochMinutes,
		NumAZs:       cfg.NumAZs,
	}
	logMean := math.Log(cfg.DiscountFrac)
	for i := 0; i < base.Len(); i++ {
		it := base.Type(i)
		if pricing.IsSpot(it.Name) {
			continue
		}
		tp := TypePrices{
			Base:        it,
			Prices:      make([]pricing.MicroUSD, cfg.Epochs),
			ReclaimProb: make([]float64, cfg.Epochs),
		}
		logP := logMean
		spikeLeft := 0
		for e := 0; e < cfg.Epochs; e++ {
			logP += cfg.Reversion*(logMean-logP) + rng.NormFloat64()*cfg.Volatility
			if spikeLeft == 0 && rng.Float64() < cfg.SpikeProb {
				spikeLeft = cfg.SpikeEpochs
			}
			frac := math.Exp(logP)
			if spikeLeft > 0 {
				frac *= cfg.SpikeFactor
				spikeLeft--
			}
			if frac > 1 {
				frac = 1 // spot never exceeds on-demand
			}
			price := pricing.MicroUSD(float64(it.HourlyRate) * frac)
			if price < 1 {
				price = 1
			}
			tp.Prices[e] = price
			// Price pressure is reclamation pressure: interpolate the
			// reclaim probability between baseline (at the mean discount)
			// and the spike level (at on-demand parity).
			pressure := (frac - cfg.DiscountFrac) / (1 - cfg.DiscountFrac)
			if pressure < 0 {
				pressure = 0
			}
			tp.ReclaimProb[e] = cfg.BaseReclaimProb + pressure*(cfg.SpikeReclaimProb-cfg.BaseReclaimProb)
		}
		m.Types = append(m.Types, tp)
	}
	for s := 0; s < cfg.Storms; s++ {
		e := cfg.Epochs/2 + rng.Intn((cfg.Epochs+1)/2)
		m.Storms = append(m.Storms, Storm{Epoch: e, AZ: rng.Intn(cfg.NumAZs)})
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("spot: generated market invalid: %w", err)
	}
	return m, nil
}
