package tracegen

import (
	"math"
	"testing"

	"github.com/pubsub-systems/mcss/internal/workload"
)

func diurnalBase(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := Random(RandomConfig{Topics: 40, Subscribers: 200, MaxFollowings: 4, MaxRate: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDiurnalShapeAndDeterminism(t *testing.T) {
	base := diurnalBase(t)
	cfg := DefaultDiurnalConfig()
	tl, err := Diurnal(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tl.NumEpochs() != cfg.Epochs || tl.EpochMinutes != cfg.EpochMinutes {
		t.Fatalf("timeline shape %d×%dmin, want %d×%dmin",
			tl.NumEpochs(), tl.EpochMinutes, cfg.Epochs, cfg.EpochMinutes)
	}
	for e, w := range tl.Epochs {
		if w.NumTopics() != base.NumTopics() || w.NumSubscribers() != base.NumSubscribers() {
			t.Fatalf("epoch %d drifted to %d topics / %d subscribers", e, w.NumTopics(), w.NumSubscribers())
		}
	}
	again, err := Diurnal(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := range tl.Epochs {
		for i := 0; i < tl.Epochs[e].NumTopics(); i++ {
			if tl.Epochs[e].Rate(workload.TopicID(i)) != again.Epochs[e].Rate(workload.TopicID(i)) {
				t.Fatalf("epoch %d not deterministic at topic %d", e, i)
			}
		}
	}
}

func TestDiurnalActivityCurve(t *testing.T) {
	cfg := DefaultDiurnalConfig()
	if g := cfg.Activity(cfg.PeakHour); math.Abs(g-1) > 1e-9 {
		t.Errorf("activity at peak = %v, want 1", g)
	}
	trough := math.Mod(cfg.PeakHour+12, 24)
	if g := cfg.Activity(trough); math.Abs(g-cfg.TroughRatio) > 1e-9 {
		t.Errorf("activity at trough = %v, want %v", g, cfg.TroughRatio)
	}
	for h := 0.0; h < 24; h += 0.5 {
		g := cfg.Activity(h)
		if g < cfg.TroughRatio-1e-9 || g > 1+1e-9 {
			t.Errorf("activity(%v) = %v outside [%v, 1]", h, g, cfg.TroughRatio)
		}
	}
}

func TestDiurnalRatesTrackActivity(t *testing.T) {
	base := diurnalBase(t)
	cfg := DefaultDiurnalConfig()
	cfg.RateJitterSigma = 0 // smooth curve for exact comparison
	cfg.ChurnFraction = 0
	tl, err := Diurnal(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var baseTotal int64
	for i := 0; i < base.NumTopics(); i++ {
		baseTotal += base.Rate(workload.TopicID(i))
	}
	for e, w := range tl.Epochs {
		g := cfg.Activity(float64(e) * float64(cfg.EpochMinutes) / 60)
		var total int64
		for i := 0; i < w.NumTopics(); i++ {
			total += w.Rate(workload.TopicID(i))
		}
		ratio := float64(total) / float64(baseTotal)
		// Rounding and the ≥1 floor allow small deviation.
		if math.Abs(ratio-g) > 0.05 {
			t.Errorf("epoch %d total rate ratio %.3f, activity %.3f", e, ratio, g)
		}
	}
}

func TestDiurnalChurnNestsAndVanishesAtPeak(t *testing.T) {
	base := diurnalBase(t)
	cfg := DefaultDiurnalConfig()
	cfg.PeakHour = 0 // epoch 0 is the peak, epoch 12 the trough
	tl, err := Diurnal(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	asleep := func(e int) map[int]bool {
		out := make(map[int]bool)
		for v := 0; v < tl.Epochs[e].NumSubscribers(); v++ {
			if tl.Epochs[e].Followings(workload.SubID(v)) == 0 && base.Followings(workload.SubID(v)) > 0 {
				out[v] = true
			}
		}
		return out
	}
	if n := len(asleep(0)); n != 0 {
		t.Errorf("%d subscribers asleep at peak, want 0", n)
	}
	trough := asleep(12)
	if len(trough) == 0 {
		t.Error("nobody asleep at the trough despite ChurnFraction > 0")
	}
	frac := float64(len(trough)) / float64(base.NumSubscribers())
	if math.Abs(frac-cfg.ChurnFraction) > 0.1 {
		t.Errorf("trough sleep fraction %.2f, want ≈%.2f", frac, cfg.ChurnFraction)
	}
	// Sleep sets nest: whoever sleeps at a shoulder epoch also sleeps at
	// the trough.
	for v := range asleep(9) {
		if !trough[v] {
			t.Errorf("subscriber %d asleep at epoch 9 but awake at the trough", v)
		}
	}
}

func TestDiurnalFlashCrowd(t *testing.T) {
	base := diurnalBase(t)
	cfg := DefaultDiurnalConfig()
	cfg.RateJitterSigma = 0
	cfg.FlashEpoch, cfg.FlashTopics, cfg.FlashFactor = 4, 2, 5
	tl, err := Diurnal(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The two hottest base topics carry 5× their base rate in the flash
	// epoch — far above the activity-scaled rate.
	hot := hottestTopics(base, 2)
	for _, id := range hot {
		want := int64(float64(base.Rate(id)) * cfg.FlashFactor)
		if got := tl.Epochs[cfg.FlashEpoch].Rate(id); got != want {
			t.Errorf("flash epoch rate of topic %d = %d, want %d", id, got, want)
		}
	}
	// And the envelope picks the flash rates up.
	env, err := tl.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range hot {
		if env.Rate(id) < tl.Epochs[cfg.FlashEpoch].Rate(id) {
			t.Errorf("envelope misses the flash rate of topic %d", id)
		}
	}
}

func TestDiurnalRejectsBadConfig(t *testing.T) {
	base := diurnalBase(t)
	bad := []DiurnalConfig{
		{Epochs: -1},
		{TroughRatio: 1.5},
		{ChurnFraction: 1},
		{FlashEpoch: 99},
		{FlashEpoch: 2, FlashTopics: 0, FlashFactor: 2},
		{FlashEpoch: 2, FlashTopics: 1, FlashFactor: 0.5},
	}
	for i, cfg := range bad {
		if _, err := Diurnal(base, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Diurnal(nil, DefaultDiurnalConfig()); err == nil {
		t.Error("nil base accepted")
	}
}

// TestDiurnalKeepsRegionTags: every epoch of a region-tagged base carries
// the base's tags (IDs are stable across the timeline), and an untagged
// base stays untagged.
func TestDiurnalKeepsRegionTags(t *testing.T) {
	base, err := TagRegions(diurnalBase(t), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Diurnal(base, DefaultDiurnalConfig())
	if err != nil {
		t.Fatal(err)
	}
	for e, w := range tl.Epochs {
		if !w.HasRegions() {
			t.Fatalf("epoch %d lost its region tags", e)
		}
		for i := 0; i < w.NumTopics(); i++ {
			if id := workload.TopicID(i); w.TopicRegion(id) != base.TopicRegion(id) {
				t.Fatalf("epoch %d topic %d in region %d, base %d", e, i, w.TopicRegion(id), base.TopicRegion(id))
			}
		}
		for v := 0; v < w.NumSubscribers(); v++ {
			if id := workload.SubID(v); w.SubscriberRegion(id) != base.SubscriberRegion(id) {
				t.Fatalf("epoch %d subscriber %d in region %d, base %d", e, v, w.SubscriberRegion(id), base.SubscriberRegion(id))
			}
		}
	}
	plain, err := Diurnal(diurnalBase(t), DefaultDiurnalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Epochs[0].HasRegions() {
		t.Fatal("untagged base produced a tagged epoch")
	}
}
