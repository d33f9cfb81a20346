package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/stats"
)

// testScale keeps experiment tests fast (~2k topics / 10k subscribers for
// Twitter, proportionally for Spotify).
const testScale = 0.1

func TestGenerateBothDatasets(t *testing.T) {
	for _, d := range []Dataset{Spotify, Twitter} {
		w, err := Generate(d, testScale)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
	if _, err := Generate(Dataset(99), 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDatasetString(t *testing.T) {
	if Spotify.String() != "spotify" || Twitter.String() != "twitter" {
		t.Error("dataset strings wrong")
	}
}

func TestModelForScalesWithInstance(t *testing.T) {
	w, err := Generate(Twitter, testScale)
	if err != nil {
		t.Fatal(err)
	}
	mL := ModelFor(pricing.C3Large, w)
	mXL := ModelFor(pricing.C3XLarge, w)
	if mXL.CapacityBytesPerHour() != 2*mL.CapacityBytesPerHour() {
		t.Errorf("c3.xlarge capacity %d != 2 × c3.large %d",
			mXL.CapacityBytesPerHour(), mL.CapacityBytesPerHour())
	}
	if mL.CapacityBytesPerHour() <= 0 {
		t.Error("non-positive capacity")
	}
}

func TestLadderStructure(t *testing.T) {
	rungs := Ladder()
	if len(rungs) != 6 {
		t.Fatalf("got %d rungs, want 6", len(rungs))
	}
	if rungs[0].Name != "RSP+FFBP" || rungs[5].Name != "(e) +cost decision" {
		t.Errorf("rung order wrong: %v ... %v", rungs[0].Name, rungs[5].Name)
	}
}

func TestRunLadderTwitterShape(t *testing.T) {
	res, err := RunLadder(context.Background(), Twitter, pricing.C3Large, testScale)
	if err != nil {
		t.Fatal(err)
	}
	// 3 τ values × (6 rungs + lower bound).
	if got, want := len(res.Rows), 3*7; got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}
	// Headline shape at τ=10: Stage 1 alone saves a lot; the full ladder
	// is at least as good; everything is above the lower bound.
	s1 := res.Stage1Savings(10)
	full := res.Savings(10)
	if s1 < 0.4 {
		t.Errorf("Stage-1 saving at τ=10 = %.1f%%, want > 40%%", s1*100)
	}
	if full < s1-0.01 {
		t.Errorf("full saving %.1f%% below stage-1 saving %.1f%%", full*100, s1*100)
	}
	if res.OverLowerBound(10) < 0 {
		t.Errorf("cost below lower bound: %v", res.OverLowerBound(10))
	}
	// Savings decline with τ (§IV-C).
	if res.Savings(10) <= res.Savings(1000) {
		t.Errorf("savings not declining: τ=10 %.1f%% vs τ=1000 %.1f%%",
			res.Savings(10)*100, res.Savings(1000)*100)
	}
}

func TestRunLadderSpotifyShape(t *testing.T) {
	res, err := RunLadder(context.Background(), Spotify, pricing.C3Large, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Savings(10); s <= 0.05 {
		t.Errorf("Spotify full saving at τ=10 = %.1f%%, want > 5%%", s*100)
	}
	if res.Savings(10) <= res.Savings(1000) {
		t.Error("Spotify savings not declining with τ")
	}
}

func TestLadderTableRenders(t *testing.T) {
	res, err := RunLadder(context.Background(), Spotify, pricing.C3XLarge, testScale)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table().String()
	for _, want := range []string{"spotify", "c3.xlarge", "RSP+FFBP", "Lower Bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestRunStage1Runtime(t *testing.T) {
	rows, err := RunStage1Runtime(context.Background(), Twitter, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Taus) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Taus))
	}
	for _, r := range rows {
		if r.Greedy <= 0 || r.Random <= 0 {
			t.Errorf("τ=%d: non-positive durations %v/%v", r.Tau, r.Greedy, r.Random)
		}
	}
}

func TestRunStage2Runtime(t *testing.T) {
	rows, err := RunStage2Runtime(context.Background(), Twitter, pricing.C3Large, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Taus) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Taus))
	}
	// The paper's Figs. 6–7 claim: CBP is far faster than FFBP. At test
	// scale the gap is smaller but must still favor CBP at τ=1000 where
	// the pair count is largest.
	last := rows[len(rows)-1]
	if last.Custom >= last.FirstFit {
		t.Errorf("τ=1000: CBP %v not faster than FFBP %v", last.Custom, last.FirstFit)
	}
}

func TestRuntimeTable(t *testing.T) {
	rows, err := RunStage1Runtime(context.Background(), Spotify, testScale)
	if err != nil {
		t.Fatal(err)
	}
	var taus []int64
	var greedy, random []time.Duration
	for _, r := range rows {
		taus = append(taus, r.Tau)
		greedy = append(greedy, r.Greedy)
		random = append(random, r.Random)
	}
	out := RuntimeTable("Fig 4: Stage 1 runtime", "GSP", "RSP", taus, greedy, random).String()
	for _, want := range []string{"Fig 4", "GSP", "RSP", "10", "1000", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime table missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceAnalysisShapes(t *testing.T) {
	ta, err := RunTraceAnalysis(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.FollowersCCDF) == 0 || len(ta.FollowingsCCDF) == 0 ||
		len(ta.EventRateCCDF) == 0 || len(ta.RateVsFollowers) == 0 ||
		len(ta.SCCCDF) == 0 || len(ta.SCVsFollowings) == 0 {
		t.Fatal("empty analysis series")
	}
	// Fig. 8: follower CCDF is power-law-ish (negative log-log slope).
	slope, err := stats.LogLogSlope(ta.FollowersCCDF[:len(ta.FollowersCCDF)-1])
	if err != nil {
		t.Fatal(err)
	}
	if slope >= 0 {
		t.Errorf("follower CCDF slope = %v, want negative", slope)
	}
	// Fig. 10: mean rate grows with followers over the low/mid range —
	// the first bucket's mean must be below the maximum bucket mean.
	first := ta.RateVsFollowers[0].Y
	var maxMean float64
	for _, p := range ta.RateVsFollowers {
		if p.Y > maxMean {
			maxMean = p.Y
		}
	}
	if maxMean <= first {
		t.Errorf("rate-vs-followers flat: first %v max %v", first, maxMean)
	}
	// Fig. 12: SC grows with followings.
	firstSC := ta.SCVsFollowings[0].Y
	lastSC := ta.SCVsFollowings[len(ta.SCVsFollowings)-1].Y
	if lastSC <= firstSC {
		t.Errorf("SC-vs-followings not increasing: %v → %v", firstSC, lastSC)
	}
}

func TestRunSummaryComparesWithPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("summary runs four full panels")
	}
	s, err := RunSummary(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2*2*len(Taus) {
		t.Fatalf("got %d rows, want %d", len(s.Rows), 2*2*len(Taus))
	}
	if len(s.Panels) != 4 {
		t.Fatalf("got %d panels, want 4", len(s.Panels))
	}
	// Qualitative agreement with the paper: Twitter saves more than
	// Spotify, and τ=10 saves more than τ=1000 in each panel.
	if s.MaxFullSavings[Twitter] <= s.MaxFullSavings[Spotify] {
		t.Errorf("Twitter max saving %.1f%% not above Spotify %.1f%%",
			s.MaxFullSavings[Twitter]*100, s.MaxFullSavings[Spotify]*100)
	}
	// Paper reference plumbing.
	if PaperFullSavings(Twitter) != 0.74 || PaperFullSavings(Spotify) != 0.38 {
		t.Error("paper reference values wrong")
	}
	out := s.Table().String()
	for _, want := range []string{"twitter", "spotify", "c3.large", "c3.xlarge", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q", want)
		}
	}
}

func TestRunHonestCapacityShowsUnitGap(t *testing.T) {
	rows, err := RunHonestCapacity(context.Background(), Twitter, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Taus) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Taus))
	}
	for _, r := range rows {
		// Under the honest 28.8 GB/hour capacity the scaled trace fits
		// in a couple of VMs; the calibrated capacity yields a fleet.
		if r.HonestVMs > 3 {
			t.Errorf("τ=%d: honest VMs = %d, expected ≤3", r.Tau, r.HonestVMs)
		}
		if r.CalibratedVMs <= r.HonestVMs {
			t.Errorf("τ=%d: calibrated VMs %d not above honest %d",
				r.Tau, r.CalibratedVMs, r.HonestVMs)
		}
	}
	out := HonestCapacityTable(Twitter, rows).String()
	if !strings.Contains(out, "Honest") || !strings.Contains(out, "twitter") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
}

func TestRunStage2Ablation(t *testing.T) {
	rows, err := RunStage2Ablation(context.Background(), Twitter, pricing.C3Large, 100, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d strategies, want 8", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		if r.VMs <= 0 || r.BytesPerH <= 0 || r.CostUSD <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Strategy, r)
		}
		byName[r.Strategy] = r
	}
	// Grouping must beat pair-granularity packing on bandwidth: grouped
	// strategies split fewer topics.
	if byName["CBP group-only"].SplitTopics >= byName["FFBP (pair first-fit)"].SplitTopics {
		t.Errorf("grouping split %d topics, FFBP %d — grouping should split fewer",
			byName["CBP group-only"].SplitTopics, byName["FFBP (pair first-fit)"].SplitTopics)
	}
	// And the full CBP must be the cheapest or tied within rounding.
	full := byName["CBP all"].CostUSD
	for _, r := range rows {
		if full > r.CostUSD*1.02 {
			t.Errorf("CBP all ($%.2f) more than 2%% above %s ($%.2f)", full, r.Strategy, r.CostUSD)
		}
	}
	out := AblationTable(Twitter, 100, rows).String()
	if !strings.Contains(out, "ablation") || !strings.Contains(out, "BFD") {
		t.Errorf("ablation table wrong:\n%s", out)
	}
}

func TestRunScaling(t *testing.T) {
	rows, err := RunScaling(context.Background(), Twitter, 100, []float64{0.02, 0.05, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, r := range rows {
		if r.Pairs <= 0 || r.Total <= 0 || r.PairsPerSec <= 0 {
			t.Errorf("row %d degenerate: %+v", i, r)
		}
		if i > 0 && r.Pairs <= rows[i-1].Pairs {
			t.Errorf("pairs not growing with scale: %d then %d", rows[i-1].Pairs, r.Pairs)
		}
	}
	// Throughput should not collapse with scale (loose super-linearity
	// guard: the largest run must keep ≥ 1/8 of the smallest run's
	// pairs/s).
	if rows[2].PairsPerSec < rows[0].PairsPerSec/8 {
		t.Errorf("throughput collapsed: %.0f → %.0f pairs/s",
			rows[0].PairsPerSec, rows[2].PairsPerSec)
	}
	out := ScalingTable(Twitter, 100, rows).String()
	if !strings.Contains(out, "scaling") || !strings.Contains(out, "pairs/s") {
		t.Errorf("scaling table wrong:\n%s", out)
	}
}

func TestRunHeteroMixedNeverWorseThanBestHomogeneous(t *testing.T) {
	for _, d := range []Dataset{Spotify, Twitter} {
		res, err := RunHetero(context.Background(), d, 0.04)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Fleet.Len() != len(pricing.Catalog()) {
			t.Errorf("%v: fleet has %d types, want the full catalog", d, res.Fleet.Len())
		}
		for _, tau := range Taus {
			mixed, ok := res.Mixed(tau)
			if !ok {
				t.Errorf("%v τ=%d: no feasible mixed solve", d, tau)
				continue
			}
			homo, ok := res.BestHomogeneous(tau)
			if !ok {
				continue
			}
			if mixed.CostUSD > homo.CostUSD+1e-9 {
				t.Errorf("%v τ=%d: mixed %.4f$ worse than homogeneous %s %.4f$",
					d, tau, mixed.CostUSD, homo.Strategy, homo.CostUSD)
			}
			if res.Savings(tau) < 0 {
				t.Errorf("%v τ=%d: negative saving %.4f", d, tau, res.Savings(tau))
			}
		}
		if len(res.Rows) == 0 {
			t.Errorf("%v: no rows", d)
		}
	}
}

func TestFleetForScalesWithLinkSpeed(t *testing.T) {
	w, err := Generate(Twitter, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	f := FleetFor(w)
	if f.CapacityOf("c3.xlarge") != 2*f.CapacityOf("c3.large") {
		t.Errorf("calibrated fleet broke the 2:1 capacity ratio: %d vs %d",
			f.CapacityOf("c3.xlarge"), f.CapacityOf("c3.large"))
	}
	if f.Capacity(0) <= 0 {
		t.Error("non-positive calibrated capacity")
	}
}
