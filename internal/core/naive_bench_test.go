package core_test

import (
	"context"
	"os"
	"strconv"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// BenchmarkStage2IndexedVsNaive pits every indexed packer against its
// test-only O(P·V) oracle (naive_test.go) on the same Twitter-like GSP
// selection — the complexity gap of the sub-quadratic packing engine, kept
// visible in every benchmark run. TestDifferentialIndexedMatchesNaive
// proves the pairs byte-identical; this benchmark proves the index is worth
// its bookkeeping.
//
// The workload scale follows the root benchmarks: MCSS_BENCH_SCALE, else
// 0.15 of the default experiment size (0.04 under -short).
func BenchmarkStage2IndexedVsNaive(b *testing.B) {
	scale := 0.15
	if testing.Short() {
		scale = 0.04
	}
	if v, err := strconv.ParseFloat(os.Getenv("MCSS_BENCH_SCALE"), 64); err == nil && v > 0 {
		scale = v
	}
	w, err := experiments.Generate(experiments.Twitter, scale)
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.ModelFor(pricing.C3Large, w)
	sel := core.GreedySelectPairs(w, 1000)
	base := core.Config{Tau: 1000, MessageBytes: experiments.MessageBytes, Model: model}
	cbp := base
	cbp.Opts = core.OptAll
	packers := []struct {
		name string
		run  func() (*core.Allocation, error)
	}{
		{"FFBP/indexed", func() (*core.Allocation, error) { return core.FFBinPackingContext(context.Background(), sel, base) }},
		{"FFBP/naive", func() (*core.Allocation, error) { return core.FFBinPackingNaive(sel, base) }},
		{"CBP/indexed", func() (*core.Allocation, error) { return core.CustomBinPackingContext(context.Background(), sel, cbp) }},
		{"CBP/naive", func() (*core.Allocation, error) { return core.CustomBinPackingNaive(sel, cbp) }},
		{"BFD/indexed", func() (*core.Allocation, error) { return core.BFDBinPackingContext(context.Background(), sel, base) }},
		{"BFD/naive", func() (*core.Allocation, error) { return core.BFDBinPackingNaive(sel, base) }},
	}
	for _, p := range packers {
		b.Run(p.name, func(b *testing.B) {
			var alloc *core.Allocation
			for i := 0; i < b.N; i++ {
				var err error
				alloc, err = p.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(alloc.NumVMs()), "vms")
			b.ReportMetric(float64(sel.NumPairs()), "pairs")
		})
	}
}
