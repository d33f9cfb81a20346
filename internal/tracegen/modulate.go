package tracegen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// DiurnalConfig parameterizes the diurnal timeline modulator: it takes a
// base workload snapshot (the peak) and derives one workload per epoch by
// modulating event rates on a 24-hour activity curve, putting a fraction of
// subscribers to sleep in the troughs (join/leave churn with stable IDs),
// and optionally spiking the hottest topics in one epoch (a flash crowd).
// Only zero values of Epochs, EpochMinutes, TroughRatio, and FlashFactor
// are filled with defaults (zero is meaningful for the other fields —
// PeakHour 0 is midnight, ChurnFraction 0 disables churn); start from
// DefaultDiurnalConfig and override to get the full Twitter-like cycle.
type DiurnalConfig struct {
	// Epochs is the number of snapshots (default 24).
	Epochs int
	// EpochMinutes is each epoch's duration (default 60). Sub-hour epochs
	// expose the per-started-hour billing penalty of churning VMs.
	EpochMinutes int64
	// PeakHour is the hour of day (0–24) of maximum activity; the trough
	// sits 12 hours away.
	PeakHour float64
	// TroughRatio is trough activity over peak activity, in (0, 1].
	TroughRatio float64
	// RateJitterSigma is the σ of the per-topic-per-epoch multiplicative
	// log-normal noise on the modulated rate (0 = smooth curve).
	RateJitterSigma float64
	// ChurnFraction is the fraction of subscribers asleep (empty interest
	// set) at the trough; activity-correlated, so nobody sleeps at peak.
	ChurnFraction float64
	// FlashEpoch, when ≥ 0, multiplies the FlashTopics hottest topics'
	// rates by FlashFactor in that epoch — an off-schedule crowd the
	// static-peak provisioner pays for all day.
	FlashEpoch  int
	FlashTopics int
	FlashFactor float64
	// Seed makes modulation deterministic.
	Seed int64
}

// DefaultDiurnalConfig returns the Twitter-like daily cycle used by the
// diurnal experiments: 24 hourly epochs peaking at 20:00 with a 4× peak-to-
// trough swing, a third of subscribers asleep at the trough, and no flash
// crowd.
func DefaultDiurnalConfig() DiurnalConfig {
	return DiurnalConfig{
		Epochs:          24,
		EpochMinutes:    60,
		PeakHour:        20,
		TroughRatio:     0.25,
		RateJitterSigma: 0.08,
		ChurnFraction:   0.35,
		FlashEpoch:      -1,
		FlashTopics:     0,
		FlashFactor:     1,
		Seed:            11,
	}
}

// withDefaults fills zero fields.
func (c DiurnalConfig) withDefaults() DiurnalConfig {
	d := DefaultDiurnalConfig()
	if c.Epochs == 0 {
		c.Epochs = d.Epochs
	}
	if c.EpochMinutes == 0 {
		c.EpochMinutes = d.EpochMinutes
	}
	if c.TroughRatio == 0 {
		c.TroughRatio = d.TroughRatio
	}
	if c.FlashFactor == 0 {
		c.FlashFactor = 1
	}
	if c.FlashTopics <= 0 && c.FlashEpoch == 0 {
		// The zero value means "no flash crowd", not "flash at epoch 0".
		c.FlashEpoch = -1
	}
	return c
}

// Activity reports the modulation factor g ∈ [TroughRatio, 1] at the given
// hour of day: a raised cosine peaking at PeakHour.
func (c DiurnalConfig) Activity(hourOfDay float64) float64 {
	phase := 2 * math.Pi * (hourOfDay - c.PeakHour) / 24
	return c.TroughRatio + (1-c.TroughRatio)*(1+math.Cos(phase))/2
}

// Diurnal derives an epoch timeline from the base workload. The base is the
// peak snapshot: epoch rates are base rates scaled by the activity curve
// (never below 1 event/hour), and sleeping subscribers keep their IDs with
// emptied interests so the whole timeline shares one identifier space.
// Every epoch keeps the base's region tags.
func Diurnal(base *workload.Workload, cfg DiurnalConfig) (*timeline.Timeline, error) {
	cfg = cfg.withDefaults()
	if base == nil || base.NumTopics() == 0 || base.NumSubscribers() == 0 {
		return nil, fmt.Errorf("tracegen: diurnal modulation needs a non-empty base workload")
	}
	if cfg.Epochs <= 0 || cfg.EpochMinutes <= 0 {
		return nil, fmt.Errorf("tracegen: need positive Epochs (%d) and EpochMinutes (%d)", cfg.Epochs, cfg.EpochMinutes)
	}
	if cfg.TroughRatio <= 0 || cfg.TroughRatio > 1 {
		return nil, fmt.Errorf("tracegen: TroughRatio %v outside (0, 1]", cfg.TroughRatio)
	}
	if cfg.ChurnFraction < 0 || cfg.ChurnFraction >= 1 {
		return nil, fmt.Errorf("tracegen: ChurnFraction %v outside [0, 1)", cfg.ChurnFraction)
	}
	if cfg.FlashEpoch >= cfg.Epochs {
		return nil, fmt.Errorf("tracegen: FlashEpoch %d outside the %d-epoch horizon", cfg.FlashEpoch, cfg.Epochs)
	}
	if cfg.FlashEpoch >= 0 && (cfg.FlashFactor < 1 || cfg.FlashTopics <= 0) {
		return nil, fmt.Errorf("tracegen: flash crowd needs FlashFactor ≥ 1 (%v) and positive FlashTopics (%d)",
			cfg.FlashFactor, cfg.FlashTopics)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	numT, numV := base.NumTopics(), base.NumSubscribers()

	// Each subscriber draws one stable activity rank u_v: v sleeps in every
	// epoch whose asleep fraction exceeds u_v, so sleep sets nest across
	// epochs (night owls drop out last) and day-over-day sleep is stable.
	rank := make([]float64, numV)
	for v := range rank {
		rank[v] = rng.Float64()
	}

	// The flash crowd hits the hottest base topics.
	flash := make(map[workload.TopicID]bool, cfg.FlashTopics)
	if cfg.FlashEpoch >= 0 {
		for _, t := range hottestTopics(base, cfg.FlashTopics) {
			flash[t] = true
		}
	}

	epochs := make([]*workload.Workload, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		hourOfDay := math.Mod(float64(e)*float64(cfg.EpochMinutes)/60, 24)
		g := cfg.Activity(hourOfDay)

		rates := make([]int64, numT)
		for t := 0; t < numT; t++ {
			f := g
			if cfg.RateJitterSigma > 0 {
				f *= math.Exp(rng.NormFloat64() * cfg.RateJitterSigma)
			}
			if f > 1 {
				f = 1 // the base snapshot is the envelope; jitter never exceeds it
			}
			r := int64(math.Round(float64(base.Rate(workload.TopicID(t))) * f))
			if e == cfg.FlashEpoch && flash[workload.TopicID(t)] {
				r = int64(float64(base.Rate(workload.TopicID(t))) * cfg.FlashFactor)
			}
			if r < 1 {
				r = 1
			}
			rates[t] = r
		}

		asleepFrac := cfg.ChurnFraction * (1 - g) / (1 - cfg.TroughRatio)
		if cfg.TroughRatio == 1 {
			asleepFrac = 0
		}
		subOff := make([]int64, 1, numV+1)
		var subTopics []workload.TopicID
		for v := 0; v < numV; v++ {
			if rank[v] >= asleepFrac {
				subTopics = append(subTopics, base.Topics(workload.SubID(v))...)
			}
			subOff = append(subOff, int64(len(subTopics)))
		}

		w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
		if err == nil {
			w, err = w.WithRegionsOf(base)
		}
		if err != nil {
			return nil, fmt.Errorf("tracegen: diurnal epoch %d: %w", e, err)
		}
		epochs[e] = w
	}
	return timeline.New(cfg.EpochMinutes, epochs)
}

// hottestTopics returns the n topics with the largest base event rate
// (ties broken by lower ID), without sorting the whole topic set.
func hottestTopics(w *workload.Workload, n int) []workload.TopicID {
	if n > w.NumTopics() {
		n = w.NumTopics()
	}
	out := make([]workload.TopicID, 0, n)
	taken := make(map[workload.TopicID]bool, n)
	for len(out) < n {
		best, bestRate := workload.TopicID(-1), int64(-1)
		for t := 0; t < w.NumTopics(); t++ {
			id := workload.TopicID(t)
			if !taken[id] && w.Rate(id) > bestRate {
				best, bestRate = id, w.Rate(id)
			}
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}
