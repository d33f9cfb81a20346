package dynamic

import (
	"context"
	"slices"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// IncrementalPolicy tunes Provisioner.UpdateIncremental.
type IncrementalPolicy struct {
	// MaxRegretFrac is how far the measured cost regret (versus the
	// incrementally maintained lower bound) may drift above the regret at
	// the last full solve before UpdateIncremental falls back to a full
	// re-solve. ≤ 0 means the default 2%.
	MaxRegretFrac float64
}

// DefaultIncrementalPolicy returns the defaults: 2% regret drift before a
// full re-solve.
func DefaultIncrementalPolicy() IncrementalPolicy {
	return IncrementalPolicy{MaxRegretFrac: 0.02}
}

// SetIncrementalPolicy installs the policy governing UpdateIncremental's
// fallback threshold. The zero policy means the defaults.
func (p *Provisioner) SetIncrementalPolicy(pol IncrementalPolicy) { p.incPol = pol }

// maxRegretFrac resolves the policy's fallback threshold.
func (pol IncrementalPolicy) maxRegretFrac() float64 {
	if pol.MaxRegretFrac <= 0 {
		return 0.02
	}
	return pol.MaxRegretFrac
}

// isZero reports a delta with no changes at all.
func (d Delta) isZero() bool {
	return len(d.NewTopics) == 0 && d.NewSubscribers == 0 &&
		len(d.RateChanges) == 0 && len(d.Subscribe) == 0 && len(d.Unsubscribe) == 0
}

// UpdateIncremental absorbs the delta by mutating the persistent index
// over the current allocation instead of re-solving from scratch: removals
// free their slots (empty VMs are released), additions and rate spikes are
// placed via indexed best-fit against existing hosts with spill to the
// cheapest fitting instance type, and a bounded local-improvement pass
// keeps quality from drifting — all in time proportional to the delta, not
// the fleet. When the measured regret versus the incrementally maintained
// lower bound drifts beyond the policy threshold, it transparently falls
// back to a full re-solve (reported in the stats). The result is adopted;
// on error the provisioner keeps its previous state.
func (p *Provisioner) UpdateIncremental(ctx context.Context, d Delta) (MigrationStats, error) {
	next, res, stats, err := p.PreviewIncremental(ctx, d)
	if err != nil {
		return MigrationStats{}, err
	}
	p.Adopt(next, res)
	return stats, nil
}

// PreviewIncremental is UpdateIncremental without the adoption: it returns
// the candidate workload, result, and stats for a controller to weigh
// first. The persistent index advances to mirror the returned candidate —
// if the caller adopts something else instead, the next incremental call
// rebuilds the index from the adopted allocation (an O(pairs) reindex, no
// solve).
func (p *Provisioner) PreviewIncremental(ctx context.Context, d Delta) (*workload.Workload, *core.Result, MigrationStats, error) {
	if err := d.Validate(p.w.NumTopics(), p.w.NumSubscribers()); err != nil {
		return nil, nil, MigrationStats{}, err
	}
	if err := p.ensureIndex(); err != nil {
		return nil, nil, MigrationStats{}, err
	}
	if d.isZero() {
		// Nothing to do: the current state is already the answer, and
		// returning it untouched keeps the no-op fingerprint-identical.
		stats := finishStats(MigrationStats{
			PairsKept:      p.res.Selection.NumPairs(),
			BaseRegretFrac: p.inc.BaseRegret(),
			RegretFrac:     p.inc.BaseRegret(),
		}, p.res.Allocation, p.res.Allocation, p.cfg.Model)
		return p.w, p.res, stats, nil
	}
	next, err := ApplyDelta(p.w, d)
	if err != nil {
		return nil, nil, MigrationStats{}, err
	}
	// Rate changes sorted for a deterministic re-rate order.
	changed := make([]workload.TopicID, 0, len(d.RateChanges))
	for t := range d.RateChanges {
		changed = append(changed, t)
	}
	slices.Sort(changed)

	deltaPairs := len(d.Subscribe) + len(d.Unsubscribe)
	if err := p.inc.BeginEpoch(ctx, next, changed); err != nil {
		p.inc = nil
		return nil, nil, MigrationStats{}, err
	}
	for _, pr := range d.Unsubscribe {
		p.inc.Unsubscribe(pr.Topic, pr.Sub)
	}
	for _, pr := range d.Subscribe {
		p.inc.Subscribe(pr.Topic, pr.Sub)
	}
	// The improve and drain passes relocate at most 64 + 4·|delta| pairs,
	// keeping them proportional to the delta.
	out, err := p.inc.FinishEpoch(ctx, 64+4*int64(deltaPairs))
	if err != nil {
		p.inc = nil
		return nil, nil, MigrationStats{}, err
	}

	if out.Regret > out.BaseRegret+p.incPol.maxRegretFrac() {
		return p.fallbackResolve(ctx, next, out)
	}
	counters := out
	counters.Result = nil // the adopted result travels separately
	stats := finishStats(MigrationStats{
		PairsMoved:     out.Dropped + out.Inserted + out.Improved,
		PairsKept:      out.Kept,
		PairsImproved:  out.Improved,
		RegretFrac:     out.Regret,
		BaseRegretFrac: out.BaseRegret,
		Epoch:          counters,
	}, p.res.Allocation, out.Result.Allocation, p.cfg.Model)
	return next, out.Result, stats, nil
}

// fallbackResolve discards the incrementally updated candidate, re-solves
// the epoch's workload from scratch, and rebuilds the persistent index on
// the fresh result (resetting the base regret the drift is measured
// against).
func (p *Provisioner) fallbackResolve(ctx context.Context, next *workload.Workload, out core.EpochOutcome) (*workload.Workload, *core.Result, MigrationStats, error) {
	res, err := core.SolveContext(ctx, next, p.cfg)
	if err != nil {
		p.inc = nil
		return nil, nil, MigrationStats{}, err
	}
	stats := MigrationStatsBetween(p.res.Allocation, res.Allocation, p.cfg.Model)
	stats.Fallback = true
	stats.BaseRegretFrac = out.BaseRegret
	inc, err := res.Allocation.Index(next, p.cfg)
	if err != nil {
		p.inc = nil
		return nil, nil, MigrationStats{}, err
	}
	p.inc = inc
	stats.RegretFrac = inc.BaseRegret()
	return next, res, stats, nil
}

// ensureIndex (re)builds the persistent incremental index when it does not
// yet mirror the current allocation — after construction, an external
// Adopt, a crash repair, or a preview the caller discarded.
func (p *Provisioner) ensureIndex() error {
	if p.inc != nil && p.inc.Base() == p.res.Allocation {
		return nil
	}
	inc, err := p.res.Allocation.Index(p.w, p.cfg)
	if err != nil {
		p.inc = nil
		return err
	}
	p.inc = inc
	return nil
}

// MigrationStatsBetween diffs primary pair hosts by VM position between
// two allocations — pairs kept on the same VM index versus moved, including
// pairs newly selected or dropped — and fills the VM-count and cost fields
// under the given pricing model. Preview, UpdateIncremental, and the deploy
// planner all route their stats through this one helper. The allocations
// need not share a workload, but must place no negative IDs; a nil one
// counts as empty.
func MigrationStatsBetween(before, after *core.Allocation, m pricing.Model) MigrationStats {
	return finishStats(migrationBetween(before, after), before, after, m)
}

// finishStats fills the VM-count and cost fields common to every path. A
// nil allocation counts as empty, as in migrationBetween.
func finishStats(stats MigrationStats, before, after *core.Allocation, m pricing.Model) MigrationStats {
	if before == nil {
		before = &core.Allocation{}
	}
	if after == nil {
		after = &core.Allocation{}
	}
	stats.VMsBefore = before.NumVMs()
	stats.VMsAfter = after.NumVMs()
	stats.CostBefore = before.Cost(m)
	stats.CostAfter = after.Cost(m)
	return stats
}
