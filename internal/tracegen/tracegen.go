// Package tracegen synthesizes pub/sub workloads with the statistical shape
// of the two proprietary traces the MCSS paper evaluates on:
//
//   - a Twitter-like trace — power-law follower and following distributions
//     (with the historical anomalies at 20 and 2000 followings the paper's
//     Appendix D documents), heavy-tailed tweet rates correlated with
//     follower count up to a celebrity threshold above which rates are
//     damped (paper Fig. 10), and a small population of very-high-rate bots;
//
//   - a Spotify-like trace — much smaller interest sets (the paper's trace
//     averages ~2.4 followings per subscriber), moderate log-normal playback
//     event rates, and a milder popularity skew.
//
// The generators are deterministic for a given seed and return validated
// workload.Workload values. Since the algorithms under study consume only
// (T, V, Int, ev), matching these distributions is what preserves the
// paper's cost and savings shapes; tracegen tests assert the distributional
// properties, and the experiments packages regenerate the paper's Appendix-D
// figures from these synthetic traces.
package tracegen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// TwitterConfig parameterizes the Twitter-like generator. Zero fields are
// filled with defaults by DefaultTwitterConfig; use that and then override.
type TwitterConfig struct {
	// Topics is the number of publishing users (users with ≥1 follower).
	Topics int
	// Subscribers is the number of following users.
	Subscribers int
	// Seed makes generation deterministic.
	Seed int64

	// PopularityAlpha is the tail exponent of the topic popularity weight
	// (smaller = more skew). The paper's follower CCDF is roughly
	// power-law with exponent ~2.
	PopularityAlpha float64
	// FollowingsAlpha is the tail exponent of the per-subscriber interest
	// size distribution.
	FollowingsAlpha float64
	// MinFollowings/MaxFollowings bound the interest size.
	MinFollowings, MaxFollowings int64
	// SpikeAt20/SpikeAt2000 are the probabilities of a subscriber landing
	// exactly on the historical 20/2000 followings anomalies.
	SpikeAt20, SpikeAt2000 float64

	// RateExponent couples event rate to follower count:
	// rate ≈ RateScale · followers^RateExponent · lognormal noise.
	RateExponent float64
	// RateScale scales the rate (events/hour).
	RateScale float64
	// RateNoiseSigma is the σ of the multiplicative log-normal noise.
	RateNoiseSigma float64
	// MaxRate caps rates (events/hour).
	MaxRate int64
	// CelebrityFollowers is the follower count beyond which rates are
	// damped (celebrities tweet less than the linear trend predicts).
	CelebrityFollowers int64
	// CelebrityDamping multiplies celebrity rates (0 < d ≤ 1).
	CelebrityDamping float64
	// BotFraction of topics get a bot-like rate drawn uniformly in
	// [MaxRate/10, MaxRate] regardless of followers.
	BotFraction float64
}

// DefaultTwitterConfig returns the configuration used by the paper-figure
// experiments: a ~1%-of-the-paper's-sample scale that solves in seconds.
func DefaultTwitterConfig() TwitterConfig {
	return TwitterConfig{
		Topics:             20_000,
		Subscribers:        100_000,
		Seed:               42,
		PopularityAlpha:    1.7,
		FollowingsAlpha:    1.6,
		MinFollowings:      1,
		MaxFollowings:      4_000,
		SpikeAt20:          0.06,
		SpikeAt2000:        0.004,
		RateExponent:       0.75,
		RateScale:          0.6,
		RateNoiseSigma:     1.6,
		MaxRate:            100_000,
		CelebrityFollowers: 2_000,
		CelebrityDamping:   0.05,
		BotFraction:        0.002,
	}
}

// Scale multiplies the topic and subscriber counts by f (≥ 0), keeping the
// distributional parameters fixed.
func (c TwitterConfig) Scale(f float64) TwitterConfig {
	c.Topics = int(float64(c.Topics) * f)
	c.Subscribers = int(float64(c.Subscribers) * f)
	return c
}

// Twitter generates a Twitter-like workload.
func Twitter(cfg TwitterConfig) (*workload.Workload, error) {
	if cfg.Topics <= 0 || cfg.Subscribers <= 0 {
		return nil, fmt.Errorf("tracegen: need positive Topics (%d) and Subscribers (%d)", cfg.Topics, cfg.Subscribers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Topic popularity weights: bounded Pareto.
	weights := make([]float64, cfg.Topics)
	for i := range weights {
		weights[i] = float64(boundedPareto(rng, 1, 1_000_000, cfg.PopularityAlpha))
	}
	table, err := newAliasTable(weights)
	if err != nil {
		return nil, err
	}

	// Interests: every subscriber samples an interest size, then picks
	// distinct topics popularity-proportionally.
	subOff := make([]int64, 1, cfg.Subscribers+1)
	var subTopics []workload.TopicID
	picked := make(map[int32]struct{}, 64)
	for v := 0; v < cfg.Subscribers; v++ {
		deg := cfg.sampleFollowings(rng)
		if deg > int64(cfg.Topics)/2 {
			deg = int64(cfg.Topics) / 2
			if deg == 0 {
				deg = 1
			}
		}
		clear(picked)
		for int64(len(picked)) < deg {
			picked[table.sample(rng)] = struct{}{}
		}
		for t := range picked {
			subTopics = append(subTopics, workload.TopicID(t))
		}
		subOff = append(subOff, int64(len(subTopics)))
	}

	// Follower counts (to couple rates to popularity).
	followers := make([]int64, cfg.Topics)
	for _, t := range subTopics {
		followers[t]++
	}

	// Event rates.
	rates := make([]int64, cfg.Topics)
	for t := range rates {
		if rng.Float64() < cfg.BotFraction {
			lo := cfg.MaxRate / 10
			rates[t] = lo + rng.Int63n(cfg.MaxRate-lo+1)
			continue
		}
		f := float64(followers[t])
		if f < 1 {
			f = 1
		}
		mean := cfg.RateScale * math.Pow(f, cfg.RateExponent)
		if followers[t] > cfg.CelebrityFollowers {
			mean *= cfg.CelebrityDamping
		}
		noise := math.Exp(rng.NormFloat64() * cfg.RateNoiseSigma)
		r := int64(mean * noise)
		if r < 1 {
			r = 1
		}
		if r > cfg.MaxRate {
			r = cfg.MaxRate
		}
		rates[t] = r
	}

	return compact(rates, subOff, subTopics)
}

// sampleFollowings draws an interest size with the CCDF anomalies at 20 and
// 2000 followings.
func (c TwitterConfig) sampleFollowings(rng *rand.Rand) int64 {
	u := rng.Float64()
	switch {
	case u < c.SpikeAt20:
		return 20
	case u < c.SpikeAt20+c.SpikeAt2000:
		return 2000
	default:
		return boundedPareto(rng, c.MinFollowings, c.MaxFollowings, c.FollowingsAlpha)
	}
}

// SpotifyConfig parameterizes the Spotify-like generator.
type SpotifyConfig struct {
	// Topics is the number of publishing users (artists/friends with
	// followers).
	Topics int
	// Subscribers is the number of following users.
	Subscribers int
	// Seed makes generation deterministic.
	Seed int64

	// PopularityAlpha is the topic popularity tail exponent.
	PopularityAlpha float64
	// FollowingsAlpha, MinFollowings, MaxFollowings shape interest sizes;
	// the paper's trace averages ~2.4 followings per subscriber.
	FollowingsAlpha              float64
	MinFollowings, MaxFollowings int64

	// RateLogMean/RateLogSigma parameterize the log-normal playback event
	// rate (events/hour): rate = exp(N(RateLogMean, RateLogSigma)).
	RateLogMean, RateLogSigma float64
	// MaxRate caps rates.
	MaxRate int64
}

// DefaultSpotifyConfig returns the experiment-scale Spotify-like
// configuration.
func DefaultSpotifyConfig() SpotifyConfig {
	return SpotifyConfig{
		Topics:          30_000,
		Subscribers:     130_000,
		Seed:            7,
		PopularityAlpha: 2.0,
		FollowingsAlpha: 2.2,
		MinFollowings:   1,
		MaxFollowings:   400,
		RateLogMean:     math.Log(25),
		RateLogSigma:    1.7,
		MaxRate:         20_000,
	}
}

// Scale multiplies the topic and subscriber counts by f, keeping the
// distributional parameters fixed.
func (c SpotifyConfig) Scale(f float64) SpotifyConfig {
	c.Topics = int(float64(c.Topics) * f)
	c.Subscribers = int(float64(c.Subscribers) * f)
	return c
}

// Spotify generates a Spotify-like workload.
func Spotify(cfg SpotifyConfig) (*workload.Workload, error) {
	if cfg.Topics <= 0 || cfg.Subscribers <= 0 {
		return nil, fmt.Errorf("tracegen: need positive Topics (%d) and Subscribers (%d)", cfg.Topics, cfg.Subscribers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	weights := make([]float64, cfg.Topics)
	for i := range weights {
		weights[i] = float64(boundedPareto(rng, 1, 100_000, cfg.PopularityAlpha))
	}
	table, err := newAliasTable(weights)
	if err != nil {
		return nil, err
	}

	subOff := make([]int64, 1, cfg.Subscribers+1)
	var subTopics []workload.TopicID
	picked := make(map[int32]struct{}, 16)
	for v := 0; v < cfg.Subscribers; v++ {
		deg := boundedPareto(rng, cfg.MinFollowings, cfg.MaxFollowings, cfg.FollowingsAlpha)
		if deg > int64(cfg.Topics)/2 {
			deg = int64(cfg.Topics) / 2
			if deg == 0 {
				deg = 1
			}
		}
		clear(picked)
		for int64(len(picked)) < deg {
			picked[table.sample(rng)] = struct{}{}
		}
		for t := range picked {
			subTopics = append(subTopics, workload.TopicID(t))
		}
		subOff = append(subOff, int64(len(subTopics)))
	}

	rates := make([]int64, cfg.Topics)
	for t := range rates {
		r := int64(math.Exp(rng.NormFloat64()*cfg.RateLogSigma + cfg.RateLogMean))
		if r < 1 {
			r = 1
		}
		if r > cfg.MaxRate {
			r = cfg.MaxRate
		}
		rates[t] = r
	}

	return compact(rates, subOff, subTopics)
}

// RandomConfig parameterizes the uniform small-workload generator used by
// tests and the quickstart example.
type RandomConfig struct {
	Topics      int
	Subscribers int
	// MaxFollowings bounds the uniform interest size in [1, MaxFollowings].
	MaxFollowings int
	// MaxRate bounds the uniform event rate in [1, MaxRate].
	MaxRate int64
	Seed    int64
}

// Random generates a uniform workload: interest sizes and rates drawn
// uniformly. Not representative of social workloads; useful for fuzzing and
// quick demos.
func Random(cfg RandomConfig) (*workload.Workload, error) {
	if cfg.Topics <= 0 || cfg.Subscribers <= 0 {
		return nil, fmt.Errorf("tracegen: need positive Topics (%d) and Subscribers (%d)", cfg.Topics, cfg.Subscribers)
	}
	if cfg.MaxFollowings <= 0 {
		cfg.MaxFollowings = 3
	}
	if cfg.MaxRate <= 0 {
		cfg.MaxRate = 100
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rates := make([]int64, cfg.Topics)
	for i := range rates {
		rates[i] = 1 + rng.Int63n(cfg.MaxRate)
	}
	subOff := make([]int64, 1, cfg.Subscribers+1)
	var subTopics []workload.TopicID
	for v := 0; v < cfg.Subscribers; v++ {
		deg := 1 + rng.Intn(cfg.MaxFollowings)
		if deg > cfg.Topics {
			deg = cfg.Topics
		}
		for _, t := range rng.Perm(cfg.Topics)[:deg] {
			subTopics = append(subTopics, workload.TopicID(t))
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	return compact(rates, subOff, subTopics)
}

// compact drops topics that ended up with no subscribers (the workload model
// requires non-empty V_t), re-densifies topic identifiers, and builds the
// Workload.
func compact(rates []int64, subOff []int64, subTopics []workload.TopicID) (*workload.Workload, error) {
	used := make([]bool, len(rates))
	for _, t := range subTopics {
		used[t] = true
	}
	remap := make([]workload.TopicID, len(rates))
	newRates := make([]int64, 0, len(rates))
	for t, u := range used {
		if !u {
			remap[t] = -1
			continue
		}
		remap[t] = workload.TopicID(len(newRates))
		newRates = append(newRates, rates[t])
	}
	for i, t := range subTopics {
		subTopics[i] = remap[t]
	}
	return workload.FromCSR(newRates, subOff, subTopics, nil, nil)
}
