package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCCDFBasic(t *testing.T) {
	pts := CCDF([]float64{1, 2, 2, 3})
	want := []Point{{1, 0.75}, {2, 0.25}, {3, 0}}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCCDFEmpty(t *testing.T) {
	if pts := CCDF(nil); pts != nil {
		t.Errorf("CCDF(nil) = %v, want nil", pts)
	}
}

func TestCCDFInt(t *testing.T) {
	pts := CCDFInt([]int64{5, 5, 10})
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].X != 5 || math.Abs(pts[0].Y-1.0/3) > 1e-12 {
		t.Errorf("pts[0] = %v", pts[0])
	}
}

func TestCCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	CCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestTailFraction(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 1},
		{2, 0.5},
		{4, 0},
	}
	for _, tc := range tests {
		if got := TailFraction(s, tc.x); got != tc.want {
			t.Errorf("TailFraction(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := TailFraction(nil, 1); got != 0 {
		t.Errorf("TailFraction(nil) = %v, want 0", got)
	}
}

func TestLogBucketMean(t *testing.T) {
	// Base 10: keys 1..9 share a bucket, 10..99 share the next.
	keys := []int64{1, 5, 9, 10, 50}
	vals := []float64{1, 2, 3, 10, 20}
	pts := LogBucketMean(keys, vals, 10)
	if len(pts) != 2 {
		t.Fatalf("got %d buckets, want 2", len(pts))
	}
	if pts[0].Y != 2 {
		t.Errorf("bucket0 mean = %v, want 2", pts[0].Y)
	}
	if pts[1].Y != 15 {
		t.Errorf("bucket1 mean = %v, want 15", pts[1].Y)
	}
}

func TestMeanPercentileMax(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	if m, err := Mean(s); err != nil || m != 2.5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
	if p, err := Percentile(s, 50); err != nil || p != 2 {
		t.Errorf("P50 = %v, %v", p, err)
	}
	if p, err := Percentile(s, 100); err != nil || p != 4 {
		t.Errorf("P100 = %v, %v", p, err)
	}
	if p, err := Percentile(s, 0); err != nil || p != 1 {
		t.Errorf("P0 = %v, %v", p, err)
	}
	if m, err := Max(s); err != nil || m != 4 {
		t.Errorf("Max = %v, %v", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should error")
	}
	if _, err := Percentile(s, 200); err == nil {
		t.Error("Percentile(200) should error")
	}
}

func TestLogLogSlopeRecoversPowerLaw(t *testing.T) {
	// y = x^-2 exactly.
	var pts []Point
	for x := 1.0; x <= 1000; x *= 2 {
		pts = append(pts, Point{X: x, Y: math.Pow(x, -2)})
	}
	slope, err := LogLogSlope(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope+2) > 1e-9 {
		t.Errorf("slope = %v, want -2", slope)
	}
}

func TestLogLogSlopeErrors(t *testing.T) {
	if _, err := LogLogSlope(nil); err == nil {
		t.Error("LogLogSlope(nil) should error")
	}
	if _, err := LogLogSlope([]Point{{1, 1}, {1, 2}}); err == nil {
		t.Error("LogLogSlope with degenerate X should error")
	}
	if _, err := LogLogSlope([]Point{{-1, 1}, {0, 2}}); err == nil {
		t.Error("LogLogSlope with non-positive points should error")
	}
}

func TestPropertyCCDFMonotoneNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(rng.Intn(50))
		}
		pts := CCDF(s)
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].Y > pts[i-1].Y {
				return false
			}
		}
		// Last point is always 0 (nothing exceeds the max).
		return pts[len(pts)-1].Y == 0 && pts[0].Y <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCCDFMatchesTailFraction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(rng.Intn(20))
		}
		for _, p := range CCDF(s) {
			if math.Abs(p.Y-TailFraction(s, p.X)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
