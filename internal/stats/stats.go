// Package stats provides the small statistics toolkit used to analyze
// workload traces the way the MCSS paper's Appendix D does: complementary
// cumulative distribution functions (CCDFs), mean-by-key dependency series,
// logarithmic bucketing, and a least-squares slope estimator for verifying
// power-law tails.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Point is one (x, y) sample of a distribution or dependency series.
type Point struct {
	X, Y float64
}

// CCDF computes the complementary cumulative distribution function
// P(X > x) of the samples, evaluated at every distinct sample value, in
// increasing x order. The input is not modified. An empty input yields nil.
func CCDF(samples []float64) []Point {
	if len(samples) == 0 {
		return nil
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var out []Point
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		// P(X > sorted[i]) = fraction of samples strictly greater.
		out = append(out, Point{X: sorted[i], Y: float64(len(sorted)-j) / n})
		i = j
	}
	return out
}

// CCDFInt is CCDF for integer samples.
func CCDFInt(samples []int64) []Point {
	fs := make([]float64, len(samples))
	for i, s := range samples {
		fs[i] = float64(s)
	}
	return CCDF(fs)
}

// TailFraction reports P(X > x) directly from samples.
func TailFraction(samples []float64, x float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var n int
	for _, s := range samples {
		if s > x {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

// LogBucketMean groups (key, value) observations into logarithmic key
// buckets of the given base (each bucket is [base^i, base^(i+1))) and
// reports the mean value per bucket, in increasing order; the reported X
// is the bucket's geometric center. Keys < 1 land in the first bucket.
// This is the shape of the paper's Fig. 10 (mean event rate vs
// #followers) and Fig. 12 (mean SC vs #followings), smoothed over their
// heavy tails. keys and values must have equal length.
func LogBucketMean(keys []int64, values []float64, base float64) []Point {
	if len(keys) != len(values) || len(keys) == 0 || base <= 1 {
		return nil
	}
	type agg struct {
		sum float64
		n   int
	}
	m := make(map[int]*agg)
	for i, k := range keys {
		b := 0
		if k >= 1 {
			b = int(math.Floor(math.Log(float64(k)) / math.Log(base)))
		}
		a := m[b]
		if a == nil {
			a = &agg{}
			m[b] = a
		}
		a.sum += values[i]
		a.n++
	}
	out := make([]Point, 0, len(m))
	for b, a := range m {
		center := math.Pow(base, float64(b)+0.5)
		out = append(out, Point{X: center, Y: a.sum / float64(a.n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// Summary statistics errors.
var errEmpty = errors.New("stats: empty input")

// Mean reports the arithmetic mean.
func Mean(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, errEmpty
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples)), nil
}

// Percentile reports the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on a sorted copy of the input.
func Percentile(samples []float64, p float64) (float64, error) {
	if len(samples) == 0 {
		return 0, errEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0], nil
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[rank-1], nil
}

// Max reports the maximum sample.
func Max(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, errEmpty
	}
	m := samples[0]
	for _, s := range samples[1:] {
		if s > m {
			m = s
		}
	}
	return m, nil
}

// LogLogSlope estimates the slope of log10(y) against log10(x) by ordinary
// least squares over points with x > 0 and y > 0. For a power-law CCDF
// P(X > x) ∝ x^(-α) the returned slope approximates -α. It returns an error
// when fewer than two usable points remain.
func LogLogSlope(points []Point) (float64, error) {
	var xs, ys []float64
	for _, p := range points {
		if p.X > 0 && p.Y > 0 {
			xs = append(xs, math.Log10(p.X))
			ys = append(ys, math.Log10(p.Y))
		}
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: need at least two positive points")
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, errors.New("stats: degenerate x values")
	}
	return (n*sxy - sx*sy) / den, nil
}
