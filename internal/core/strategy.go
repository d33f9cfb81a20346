package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// Strategy is a named, pluggable solver implementation: the registry's
// bridge from names that arrive from outside the program (Planner options,
// deploy specs, CLI flags) to the function fields of Config. A strategy
// fills one or more roles by setting the corresponding function field — a
// Stage-1 pair selector (Config.Stage1), a Stage-2 packer
// (Config.Stage2), or a complete solver that bypasses the two-stage split
// entirely (Config.Solver; the exact solver registers itself this way).
// Code inside the program that wants a built-in references its function
// directly instead of looking it up.
type Strategy struct {
	// SelectPairs implements Stage 1. Nil when the strategy has no
	// Stage-1 role.
	SelectPairs func(ctx context.Context, w *workload.Workload, cfg Config) (*Selection, error)
	// Pack implements Stage 2. Nil when the strategy has no Stage-2 role.
	Pack func(ctx context.Context, sel *Selection, cfg Config) (*Allocation, error)
	// Solve implements a complete solver, replacing both stages. Nil when
	// the strategy has no full-solve role.
	Solve func(ctx context.Context, w *workload.Workload, cfg Config) (*Result, error)
}

// IsZero reports whether the strategy fills no role.
func (s Strategy) IsZero() bool {
	return s.SelectPairs == nil && s.Pack == nil && s.Solve == nil
}

var (
	strategyMu  sync.RWMutex
	strategyReg = make(map[string]Strategy)
)

// RegisterStrategy adds a named strategy to the global registry. Names are
// case-insensitive and trimmed; registering an empty name, a strategy with
// no role, or a name already taken is an error. Registration is typically
// done from an init function.
func RegisterStrategy(name string, s Strategy) error {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return fmt.Errorf("core: empty strategy name")
	}
	if s.IsZero() {
		return fmt.Errorf("core: strategy %q fills no role", name)
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyReg[key]; dup {
		return fmt.Errorf("core: strategy %q already registered", key)
	}
	strategyReg[key] = s
	return nil
}

// StrategyByName looks up a registered strategy (case-insensitive).
func StrategyByName(name string) (Strategy, bool) {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	s, ok := strategyReg[strings.ToLower(strings.TrimSpace(name))]
	return s, ok
}

// StrategyNames lists the registered strategy names, sorted.
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	names := make([]string, 0, len(strategyReg))
	for name := range strategyReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func mustRegisterStrategy(name string, s Strategy) {
	if err := RegisterStrategy(name, s); err != nil {
		panic(err)
	}
}

// The built-in strategies: the paper's two Stage-1 and two Stage-2
// algorithms plus the BFD baseline, registered under their paper acronyms
// and a descriptive alias each. The exact solver registers "exact" from
// its own package.
func init() {
	gsp := Strategy{SelectPairs: GreedySelectPairsContext}
	rsp := Strategy{SelectPairs: RandomSelectPairsContext}
	cbp := Strategy{Pack: CustomBinPackingContext}
	ffbp := Strategy{Pack: FFBinPackingContext}
	bfd := Strategy{Pack: BFDBinPackingContext}
	for name, s := range map[string]Strategy{
		"gsp": gsp, "greedy": gsp,
		"rsp": rsp, "random": rsp,
		"cbp": cbp, "custom": cbp,
		"ffbp": ffbp, "first-fit": ffbp,
		"bfd": bfd,
	} {
		mustRegisterStrategy(name, s)
	}
}
