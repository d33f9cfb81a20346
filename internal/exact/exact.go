// Package exact solves tiny MCSS instances optimally by exhaustive dynamic
// programming, and implements the paper's NP-hardness artifact: the
// reduction from the Partition Problem to DCSS (Theorem II.2).
//
// The solver enumerates every subset of topic–subscriber pairs that
// satisfies all subscribers, and for each, computes the optimal packing cost
// with a subset-partition DP (f[mask] = min over blocks). Complexity is
// O(3^P·P); instances are capped at MaxPairs pairs. It exists to validate
// the heuristic pipeline: the heuristic can never beat it, and on small
// instances the heuristic-to-optimal ratio is measurable.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// MaxPairs bounds instance size; 3^14·14 ≈ 7e7 DP steps is the practical
// ceiling for a unit-test-speed exact solve.
const MaxPairs = 14

// ErrTooLarge reports an instance beyond MaxPairs pairs.
var ErrTooLarge = errors.New("exact: instance exceeds MaxPairs topic-subscriber pairs")

// Solution is an optimal MCSS solution.
type Solution struct {
	// Cost is the optimal objective C1(|B|) + C2(Σ bw_b).
	Cost pricing.MicroUSD
	// VMs is the VM count of the optimal solution.
	VMs int
	// BytesPerHour is Σ bw_b of the optimal solution.
	BytesPerHour int64
	// Selected is the chosen pair set, in subscriber-major order.
	Selected []workload.Pair
	// Allocation is the optimal packing materialized as a solver
	// allocation (reconstructed from the DP's block choices), so the
	// exact solution can be verified, simulated, and billed through the
	// same pipeline as heuristic results.
	Allocation *core.Allocation
}

// checkMasks is how many DP nodes are processed between context polls: the
// per-node work is tens of nanoseconds, so a batch stays well under a
// millisecond while keeping the check off the DP's profile.
const checkMasks = 4096

// SolveContext computes the optimal MCSS solution. Config semantics match
// core.SolveContext (Tau, MessageBytes, Model, Fleet); the Stage/Opts
// fields are ignored. With a multi-type Fleet the packing DP branches over
// instance choices: every VM (block of pairs) is billed at the cheapest
// fleet type whose capacity covers the block, so the optimum is taken over
// mixed-instance deployments too. It returns ErrTooLarge for instances with
// more than MaxPairs pairs and core.ErrInfeasible when no feasible solution
// exists (some mandatory pair cannot fit in any VM). The subset-DP loops
// poll cancellation every checkMasks nodes (a solve over the full
// 2^MaxPairs state space aborts within a few thousand node visits), and
// cfg.Observer receives StageExact progress over the DP mask space.
func SolveContext(ctx context.Context, w *workload.Workload, cfg core.Config) (Solution, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	if w.NumPairs() > MaxPairs {
		return Solution{}, fmt.Errorf("%w: %d pairs", ErrTooLarge, w.NumPairs())
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = core.DefaultMessageBytes
	}
	if cfg.Tau <= 0 {
		return Solution{}, errors.New("exact: Tau must be positive")
	}
	fleet := cfg.EffectiveFleet()
	bc := fleet.MaxCapacity()
	if bc <= 0 {
		return Solution{}, errors.New("exact: model has no positive capacity")
	}
	// blockRental returns the cheapest one-VM rental able to carry bw
	// bytes/hour, or -1 when no fleet type fits. It shares cheapestFit
	// with the allocation reconstruction, so the DP's pricing and the
	// reconstructed Allocation can never pick different instance types.
	blockRental := func(bw int64) int64 {
		ti := cheapestFit(fleet, cfg.Model, bw)
		if fleet.Capacity(ti) < bw {
			return -1
		}
		return int64(cfg.Model.InstanceVMCost(fleet.Type(ti), 1))
	}

	// Flatten pairs.
	type pairInfo struct {
		pair  workload.Pair
		rate  int64 // events/hour
		rb    int64 // bytes/hour
		topic int   // dense topic index among referenced topics
	}
	var pairs []pairInfo
	topicIdx := make(map[workload.TopicID]int)
	w.Pairs(func(p workload.Pair) bool {
		ti, ok := topicIdx[p.Topic]
		if !ok {
			ti = len(topicIdx)
			topicIdx[p.Topic] = ti
		}
		pairs = append(pairs, pairInfo{
			pair:  p,
			rate:  w.Rate(p.Topic),
			rb:    w.Rate(p.Topic) * cfg.MessageBytes,
			topic: ti,
		})
		return true
	})
	nP := len(pairs)
	size := 1 << nP

	// Incremental bandwidth and topic-set tables over pair masks.
	bw := make([]int64, size)        // bytes/hour if the mask shares one VM
	topicsOf := make([]uint32, size) // bitmask of dense topic indices
	topicRB := make([]int64, len(topicIdx))
	for _, pi := range pairs {
		topicRB[pi.topic] = pi.rb
	}
	for m := 1; m < size; m++ {
		low := m & -m
		i := bits.TrailingZeros32(uint32(m))
		rest := m ^ low
		topicsOf[m] = topicsOf[rest] | 1<<uint(pairs[i].topic)
		bw[m] = bw[rest] + pairs[i].rb
		if topicsOf[rest]&(1<<uint(pairs[i].topic)) == 0 {
			bw[m] += pairs[i].rb // incoming stream, charged once per VM
		}
	}

	// Packing DP: cost[m] = optimal packing of exactly the pairs in m.
	// The canonical objective (Allocation.TotalCost, the lower bound, the
	// heuristic pipeline) prices bandwidth once on the TOTAL transfer
	// volume: Σ rentals + floor(PerGB·TransferBytes(Σ bw)/GB). Summing
	// per-block floor prices inside the DP undercounts that by up to one
	// microdollar per block, which is enough to report a "optimum" below
	// the lower bound on micro instances. So the DP minimizes the exact
	// rational value scaled by GB — rental·GB + PerGB·TransferBytes(bw),
	// all integer, no rounding — which also minimizes its floor, i.e. the
	// canonical cost. The winner is repriced canonically at the end.
	// Additions saturate at inf so a pathological model degrades to "block
	// never wins" rather than wrapping. pick[m] records the winning block
	// so the optimal packing can be reconstructed.
	obs := core.ResolveObserver(ctx, cfg)
	if obs != nil {
		obs.OnStageStart(core.StageExact, 2*int64(size))
	}
	const inf = int64(1) << 62
	satAdd := func(a, b int64) int64 {
		if a >= inf-b {
			return inf
		}
		return a + b
	}
	satScale := func(a, b int64) int64 {
		if a <= 0 || b <= 0 {
			return 0
		}
		if a > inf/b {
			return inf
		}
		return a * b
	}
	perGB := int64(cfg.Model.PerGB)
	blockScaled := func(rental, bwBlock int64) int64 {
		return satAdd(satScale(rental, pricing.GB), satScale(cfg.Model.TransferBytes(bwBlock), perGB))
	}
	cost := make([]int64, size) // microdollars·GB (scaled, exact)
	vms := make([]int, size)
	rent := make([]int64, size) // microdollars, rental term only
	bwSum := make([]int64, size)
	pick := make([]int, size)
	for m := 1; m < size; m++ {
		if m%checkMasks == 0 {
			if err := ctx.Err(); err != nil {
				return Solution{}, err
			}
			if obs != nil {
				obs.OnProgress(core.StageExact, int64(m), 2*int64(size))
			}
		}
		cost[m] = inf
		low := m & -m
		// Enumerate submasks of m that contain the lowest pair.
		for s := m; s > 0; s = (s - 1) & m {
			if s&low == 0 {
				continue
			}
			if bw[s] > bc {
				continue
			}
			rest := m ^ s
			if cost[rest] == inf {
				continue
			}
			rental := blockRental(bw[s])
			c := satAdd(cost[rest], blockScaled(rental, bw[s]))
			if c < cost[m] {
				cost[m] = c
				vms[m] = vms[rest] + 1
				rent[m] = rent[rest] + rental
				bwSum[m] = bwSum[rest] + bw[s]
				pick[m] = s
			}
		}
	}

	// Satisfaction masks: per subscriber, the pair indices and τ_v.
	type subNeed struct {
		mask uint32
		tauV int64
	}
	needs := make([]subNeed, w.NumSubscribers())
	for i, pi := range pairs {
		needs[pi.pair.Sub].mask |= 1 << uint(i)
	}
	for v := range needs {
		needs[v].tauV = w.TauV(workload.SubID(v), cfg.Tau)
	}

	best := inf
	bestMask := -1
	for m := 0; m < size; m++ {
		if m%checkMasks == 0 {
			if err := ctx.Err(); err != nil {
				return Solution{}, err
			}
			if obs != nil {
				obs.OnProgress(core.StageExact, int64(size)+int64(m), 2*int64(size))
			}
		}
		if cost[m] == inf && m != 0 {
			continue
		}
		ok := true
		for _, nd := range needs {
			var got int64
			sub := uint32(m) & nd.mask
			for sub != 0 {
				i := bits.TrailingZeros32(sub)
				got += pairs[i].rate
				sub &= sub - 1
			}
			if got < nd.tauV {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		c := cost[m]
		if m == 0 {
			c = 0
		}
		if c < best {
			best = c
			bestMask = m
		}
	}
	if bestMask < 0 {
		return Solution{}, fmt.Errorf("%w: no pair subset that packs within VM capacity satisfies every subscriber", core.ErrInfeasible)
	}
	// Reprice the winning partition with the canonical cost function —
	// one bandwidth charge on the total transfer volume — so Cost is
	// directly comparable to heuristic and lower-bound figures.
	sol := Solution{
		Cost: pricing.MicroUSD(rent[bestMask]) +
			cfg.Model.BandwidthCost(cfg.Model.TransferBytes(bwSum[bestMask])),
		VMs:          vms[bestMask],
		BytesPerHour: bwSum[bestMask],
	}
	for i := 0; i < nP; i++ {
		if bestMask&(1<<uint(i)) != 0 {
			sol.Selected = append(sol.Selected, pairs[i].pair)
		}
	}

	// Reconstruct the optimal packing from the DP's block choices and
	// materialize it as an allocation: every block becomes one VM on the
	// cheapest fleet type whose capacity covers the block's bandwidth.
	alloc := &core.Allocation{Fleet: fleet, MessageBytes: cfg.MessageBytes}
	for m := bestMask; m != 0; m ^= pick[m] {
		s := pick[m]
		vm := &core.VM{ID: alloc.NumVMs()}
		ti := cheapestFit(fleet, cfg.Model, bw[s])
		vm.Instance, vm.CapacityBytesPerHour = fleet.Type(ti), fleet.Capacity(ti)
		byTopic := make(map[int]int) // dense topic index → placement index
		for rest := s; rest != 0; rest &= rest - 1 {
			pi := pairs[bits.TrailingZeros32(uint32(rest))]
			idx, ok := byTopic[pi.topic]
			if !ok {
				idx = len(vm.Placements)
				byTopic[pi.topic] = idx
				vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: pi.pair.Topic})
				vm.InBytesPerHour += pi.rb
			}
			p := &vm.Placements[idx]
			p.Subs = append(p.Subs, pi.pair.Sub)
			vm.OutBytesPerHour += pi.rb
		}
		alloc.VMs = append(alloc.VMs, vm)
	}
	sol.Allocation = alloc

	core.FinishStage(obs, core.StageExact, 2*int64(size), 2*int64(size), time.Since(start))
	return sol, nil
}

// cheapestFit returns the index of the cheapest fleet type whose capacity
// covers bw, falling back to the largest type (callers only pass block
// bandwidths the DP already admitted against the max capacity).
func cheapestFit(f pricing.Fleet, m pricing.Model, bw int64) int {
	best := -1
	for i := 0; i < f.Len(); i++ {
		if f.Capacity(i) < bw {
			continue
		}
		if best < 0 || m.InstanceVMCost(f.Type(i), 1) < m.InstanceVMCost(f.Type(best), 1) {
			best = i
		}
	}
	if best < 0 {
		return f.Len() - 1
	}
	return best
}

// Decision answers the paper's DCSS decision problem: is a total cost of at
// most budget achievable?
func Decision(w *workload.Workload, cfg core.Config, budget pricing.MicroUSD) (bool, error) {
	sol, err := SolveContext(context.Background(), w, cfg)
	if errors.Is(err, core.ErrInfeasible) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return sol.Cost <= budget, nil
}

// PartitionToDCSS builds the Theorem II.2 reduction: for multiset xs it
// returns a DCSS instance (workload + config) and the cost threshold such
// that the instance admits cost ≤ threshold iff xs can be partitioned into
// two equal-sum halves. Each integer becomes a topic with one dedicated
// subscriber; BC = Σ xs (each topic consumes 2·x_i of it); C1 counts VMs at
// one micro-dollar each and C2 = 0; the threshold is 2 VMs.
func PartitionToDCSS(xs []int64) (*workload.Workload, core.Config, pricing.MicroUSD, error) {
	if len(xs) == 0 {
		return nil, core.Config{}, 0, errors.New("exact: empty partition instance")
	}
	var sum, max int64
	for _, x := range xs {
		if x <= 0 {
			return nil, core.Config{}, 0, fmt.Errorf("exact: partition inputs must be positive, got %d", x)
		}
		sum += x
		if x > max {
			max = x
		}
	}
	rates := make([]int64, len(xs))
	subOff := make([]int64, len(xs)+1)
	subTopics := make([]workload.TopicID, len(xs))
	for i, x := range xs {
		rates[i] = x
		subOff[i+1] = int64(i + 1)
		subTopics[i] = workload.TopicID(i)
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		return nil, core.Config{}, 0, err
	}
	m := pricing.Model{
		Instance:                     pricing.InstanceType{Name: "reduction", HourlyRate: 1, LinkMbps: 1},
		Hours:                        1,
		PerGB:                        0, // C2(x) = 0
		CapacityOverrideBytesPerHour: sum,
	}
	cfg := core.Config{
		Tau:          max, // τ = max x_i: every pair mandatory
		MessageBytes: 1,
		Model:        m,
	}
	return w, cfg, pricing.MicroUSD(2), nil // threshold: 2 VMs at $1e-6 each
}
