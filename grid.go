package pem

import (
	"context"
	"errors"
	"fmt"

	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/grid"
	"github.com/pem-go/pem/internal/market"
)

// This file is the public face of the sharded coalition grid: partition a
// large fleet into coalitions, run each coalition as its own private market
// over shared crypto and transport, and settle every coalition's residual
// supply/demand against the main grid. It mirrors the Market API: configure,
// construct, Run.

// Re-exported grid model types.
type (
	// Scenario names a dataset synthesis preset (sunny, overcast, …);
	// TraceConfig.Scenario selects one.
	Scenario = dataset.Scenario
	// FleetConfig controls heterogeneous fleet synthesis (GenerateFleet).
	FleetConfig = dataset.FleetConfig
	// CoalitionRun is one coalition's day outcome inside a GridResult.
	CoalitionRun = grid.CoalitionRun
	// GridResult is the outcome of a full grid run.
	GridResult = grid.Result
	// CoalitionResidual is one coalition's day-aggregate unmatched energy.
	CoalitionResidual = market.CoalitionResidual
	// CoalitionSettlement values one coalition's residuals at the grid tariff.
	CoalitionSettlement = market.CoalitionSettlement
	// GridSettlement is the fleet-wide residual settlement, including the
	// cross-coalition netting opportunity.
	GridSettlement = market.GridSettlement
	// TierSettlement is one hierarchy tier's netting outcome (GridConfig.Tiers).
	TierSettlement = market.TierSettlement
	// TieredSettlement is the recursive settlement of a tiered grid: one
	// netting outcome per tier plus the grid boundary.
	TieredSettlement = market.TieredSettlement
)

// Dataset scenario presets, selected by TraceConfig.Scenario; GenerateFleet
// rotates its blocks through them.
const (
	ScenarioBase         = dataset.ScenarioBase
	ScenarioSunny        = dataset.ScenarioSunny
	ScenarioOvercast     = dataset.ScenarioOvercast
	ScenarioWinter       = dataset.ScenarioWinter
	ScenarioStorageHeavy = dataset.ScenarioStorageHeavy
)

// Partition strategies for GridConfig.Partition.
const (
	// PartitionFixed chunks the fleet in roster order (scenario-pure blocks
	// for a GenerateFleet trace).
	PartitionFixed = string(grid.StrategyFixed)
	// PartitionRandom shuffles with a seeded permutation before chunking.
	PartitionRandom = string(grid.StrategyRandom)
	// PartitionBalanced greedily mixes producers and consumers per
	// coalition using only public agent metadata.
	PartitionBalanced = string(grid.StrategyBalanced)
)

// GenerateFleet synthesizes a heterogeneous fleet trace: one scenario
// preset per coalition-sized block, all derived from a single seed. Feed it
// to NewGrid.
func GenerateFleet(cfg FleetConfig) (*Trace, error) {
	return dataset.GenerateFleet(cfg)
}

// ErrCoalitionSkipped marks coalitions that were never launched because the
// grid had stopped admitting work: after an earlier coalition's failure, a
// context cancellation or a sink/store error (the message says which). A
// coalition folded below MinCoalition agents is not skipped: it has Err nil
// and CoalitionRun.Folded set.
var ErrCoalitionSkipped = grid.ErrCoalitionSkipped

// GridConfig configures a sharded coalition grid.
type GridConfig struct {
	// Market is the per-coalition market configuration: every coalition
	// runs a full private market under it (key size, aggregation topology,
	// network emulation, seed), its windows one after another. A grid
	// refuses Market.Store: coalitions persist through Store below. One
	// crypto worker pool of runtime.NumCPU() workers is shared across
	// coalitions, so it bounds the whole process. Each completed
	// coalition-day carries its own tamper-evident chain in
	// CoalitionRun.Ledger, committed on the settlement path.
	Market Config
	// Coalitions is how many coalitions to partition the fleet into
	// (required; the partition gives each at least two agents, so at most
	// half the fleet). A coalition below MinCoalition agents is folded: its
	// agents trade at the grid tariff, and it is delivered and settled like
	// any other, with CoalitionRun.Folded set and Err nil.
	Coalitions int
	// Partition selects the strategy: PartitionFixed (default),
	// PartitionRandom (seeded by Market.Seed, 0 when unset) or
	// PartitionBalanced. The partition is computed once, in NewGrid.
	Partition string
	// MaxConcurrentCoalitions is the global in-flight budget: how many
	// coalition-days run concurrently (default: all). Outcomes are
	// bit-identical at any setting when Market.Seed is set.
	MaxConcurrentCoalitions int
	// Tiers makes settlement hierarchical — a grid of grids. Tiers[0]
	// consecutive coalitions form a district, Tiers[1] districts a region,
	// and so on; each tier nets its children's surplus against their
	// deficit before the unmatched remainder moves toward the grid tariff.
	// The result's Settlement becomes the hierarchy's grid boundary and
	// Tiers carries the per-tier outcomes. Empty means flat settlement,
	// bit-identical to a grid without hierarchy.
	Tiers []int
	// Store, when set, persists each coalition's outcome as it completes —
	// ledger blocks, key-material fingerprints and settlement aggregate,
	// under the coalition's scope ("c00", "c01", …) — in partition order,
	// before the streaming payload release. A store error aborts the run
	// like a sink error.
	Store Store `json:"-"`
}

// live widens the one-shot configuration to the live grid's, of which it is
// the per-epoch subset (no Epochs, Churn or retention), so both lower
// through one function (LiveGridConfig.lower).
func (cfg GridConfig) live() LiveGridConfig {
	return LiveGridConfig{
		Market:                  cfg.Market,
		Coalitions:              cfg.Coalitions,
		Partition:               cfg.Partition,
		MaxConcurrentCoalitions: cfg.MaxConcurrentCoalitions,
		Tiers:                   cfg.Tiers,
		Store:                   cfg.Store,
	}
}

// Grid is a partitioned fleet ready to trade. Unlike Market (whose keys
// outlive windows), a Grid provisions each coalition's engine inside Run,
// so the zero-state struct holds only the plan: trace and partition.
type Grid struct {
	cfg   grid.Config
	trace *Trace
	parts [][]int
}

// NewGrid validates the config and partitions the fleet trace into
// coalitions. The partition is deterministic given the config and visible
// via Partition before any protocol runs; a statically-bad config (unknown
// partition strategy, negative budgets, a Market every coalition would
// refuse) fails here, not in Run.
func NewGrid(cfg GridConfig, trace *Trace) (*Grid, error) {
	if trace == nil || len(trace.Homes) == 0 {
		return nil, errors.New("pem: grid needs a non-empty fleet trace")
	}
	lcfg, err := cfg.live().lower()
	if err != nil {
		return nil, err
	}
	parts, err := grid.Partition(lcfg.Partition, trace.Homes, lcfg.Coalitions, cfg.Market.partitionSeed())
	if err != nil {
		return nil, fmt.Errorf("pem: %w", err)
	}
	return &Grid{cfg: lcfg.Grid, trace: trace, parts: parts}, nil
}

// partitionSeed is what a random partition draws from: the market seed, 0
// when unset.
func (cfg Config) partitionSeed() int64 {
	if cfg.Seed == nil {
		return 0
	}
	return *cfg.Seed
}

// Partition returns the coalition membership as agent IDs, in coalition
// order. Membership derives only from public agent metadata.
func (g *Grid) Partition() [][]string {
	out := make([][]string, len(g.parts))
	for i, part := range g.parts {
		out[i] = make([]string, len(part))
		for j, h := range part {
			out[i][j] = g.trace.Homes[h].ID
		}
	}
	return out
}

// Run executes one trading day for every coalition concurrently over shared
// infrastructure and settles the residuals. A failing coalition fails alone:
// its siblings in flight drain normally, unlaunched coalitions are skipped,
// and the returned GridResult carries per-coalition outcomes (with Err set
// on the failed and skipped ones) alongside the earliest failure, so a
// partial day is still observable. Run keeps every coalition's full payload;
// Stream releases each one once its sink returns.
func (g *Grid) Run(ctx context.Context) (*GridResult, error) {
	return g.run(ctx, nil)
}

// Stream executes the same grid day as Run but delivers each coalition's
// full outcome to sink in partition order as soon as it (and every
// coalition before it) completes, then releases the coalition's heavy
// payload. The returned GridResult is the fold — settlement, tiers,
// windows, traffic — with Coalitions nil, so memory stays bounded by the
// coalitions in flight rather than the fleet size. The *CoalitionRun is
// valid only during the sink call; a sink error cancels the in-flight
// coalitions and aborts the run, and a nil sink is refused. With
// Market.Seed set, a Stream is bit-identical to Run at any sink
// consumption speed.
func (g *Grid) Stream(ctx context.Context, sink func(*CoalitionRun) error) (*GridResult, error) {
	if sink == nil {
		return nil, errors.New("pem: Grid.Stream needs a sink (use Run)")
	}
	return g.run(ctx, sink)
}

// run is Run (nil sink) and Stream.
func (g *Grid) run(ctx context.Context, sink func(*CoalitionRun) error) (*GridResult, error) {
	res, err := grid.Run(ctx, g.cfg, g.trace, g.parts, sink)
	if err != nil {
		return res, fmt.Errorf("pem: %w", err)
	}
	return res, nil
}
