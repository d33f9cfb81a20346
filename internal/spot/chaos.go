package spot

import (
	"math/rand"
	"sort"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// Chaos draws the market's interruption model over a live allocation: per
// epoch it decides which spot VMs are reclaimed, grouped by availability
// zone so correlated failures (storms, AZ-wide capacity crunches) surface
// as one group that must be repaired atomically. On-demand VMs are never
// touched. Deterministic for a given seed, market, and allocation
// sequence; not safe for concurrent use.
type Chaos struct {
	m   *Market
	rng *rand.Rand
}

// NewChaos builds a seeded chaos source over a validated market.
func NewChaos(m *Market, seed int64) (*Chaos, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Chaos{m: m, rng: rand.New(rand.NewSource(seed))}, nil
}

// Zone reports the availability zone a VM is homed in: VM IDs are dense,
// so striping id mod NumAZs spreads every type across zones.
func (c *Chaos) Zone(vmID int) int { return vmID % c.m.NumAZs }

// FailureGroups draws epoch e's reclamations against the allocation
// serving it and returns the reclaimed VM IDs grouped by availability
// zone, zones ascending, IDs ascending within a group. A VM is reclaimed
// when its zone is hit by a storm this epoch, or by an independent draw
// against its type's reclamation probability. Empty result means a calm
// epoch. Every spot VM consumes exactly one draw from the seeded stream
// (in ID order), so results are reproducible across runs regardless of
// which zones storm.
func (c *Chaos) FailureGroups(e int, alloc *core.Allocation) [][]int {
	storming := make(map[int]bool)
	for _, az := range c.m.StormZones(e) {
		storming[az] = true
	}
	byZone := make(map[int][]int)
	for _, vm := range alloc.VMs {
		if !pricing.IsSpot(vm.Instance.Name) {
			continue
		}
		p := c.m.ReclaimProbAt(pricing.BaseName(vm.Instance.Name), e)
		hit := c.rng.Float64() < p // always draw: keeps the stream aligned
		az := c.Zone(vm.ID)
		if storming[az] || hit {
			byZone[az] = append(byZone[az], vm.ID)
		}
	}
	if len(byZone) == 0 {
		return nil
	}
	zones := make([]int, 0, len(byZone))
	for az := range byZone {
		zones = append(zones, az)
	}
	sort.Ints(zones)
	groups := make([][]int, 0, len(zones))
	for _, az := range zones {
		ids := byZone[az]
		sort.Ints(ids)
		groups = append(groups, ids)
	}
	return groups
}
