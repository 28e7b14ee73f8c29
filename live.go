package pem

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/grid"
	"github.com/pem-go/pem/internal/market"
)

// This file is the public face of the live (epoched) grid: a multi-day
// simulation over a churning fleet. Prosumers join, depart and fail at
// epoch boundaries; each epoch re-partitions the surviving-plus-new roster
// and re-keys every coalition over the shared crypto and transport
// infrastructure, and per-agent settlement carries across epochs. It
// mirrors the Grid API: configure, construct, Run.

// Re-exported live-grid model types.
type (
	// ChurnConfig controls the seeded churn model of a live grid (join,
	// depart and fail rates per epoch boundary).
	ChurnConfig = dataset.ChurnConfig
	// ChurnEvent is one fleet-membership change at an epoch boundary.
	ChurnEvent = dataset.ChurnEvent
	// ChurnEventKind classifies a churn event (join, depart or fail).
	ChurnEventKind = dataset.ChurnEventKind
	// AgentFlows is one agent's cumulative energy and payment flows.
	AgentFlows = market.AgentFlows
	// AgentPosition is one agent's cumulative cross-epoch position,
	// frozen at its exit epoch if it left the fleet.
	AgentPosition = market.AgentPosition
	// EpochResult is one epoch's outcome inside a LiveGridResult: the
	// epoch's trading day (an embedded GridResult, whose Duration is the
	// whole epoch's) plus its churn and its re-key/trading split.
	EpochResult = grid.EpochResult
	// LiveGridResult is the outcome of a full live-grid simulation.
	LiveGridResult = grid.LiveResult
)

// Churn event kinds (ChurnEvent.Kind).
const (
	// ChurnJoin marks a prosumer entering the fleet at an epoch boundary.
	ChurnJoin = dataset.ChurnJoin
	// ChurnDepart marks a planned departure: the agent finishes its epoch
	// and its cumulative position freezes on exit.
	ChurnDepart = dataset.ChurnDepart
	// ChurnFail marks a crash-style failure; settlement freezes the
	// position exactly like a departure.
	ChurnFail = dataset.ChurnFail
)

// MinCoalition is the roster floor of a private market: a coalition with
// fewer agents is folded into grid settlement, its agents trading at the
// grid tariff (CoalitionRun.Folded). Below three agents the paper's
// protocols have no counterparty beyond the special parties.
const MinCoalition = grid.MinCoalition

// LiveGridConfig configures a live (epoched) coalition grid.
type LiveGridConfig struct {
	// Market is the per-coalition market configuration, exactly as for
	// GridConfig: a grid refuses Market.Store. When Market.Seed is set the
	// whole simulation is deterministic: a home's key pair derives from the
	// seed and its ID (kept for as long as the home stays), everything else
	// an epoch draws from a per-epoch seed.
	Market Config
	// Coalitions is the target coalition count per epoch (required). When
	// churn shrinks the fleet too far, an epoch runs with the largest
	// count whose coalitions keep MinCoalition agents; a coalition churned
	// below it is folded (CoalitionRun.Folded set, Err nil) and the epoch
	// goes on.
	Coalitions int
	// Partition selects the per-epoch partition strategy: PartitionFixed
	// (default), PartitionRandom or PartitionBalanced. Every epoch
	// re-partitions the surviving-plus-new roster from scratch;
	// PartitionRandom draws from a per-epoch seed derived from Market.Seed
	// (0 when unset).
	Partition string
	// MaxConcurrentCoalitions is the per-epoch in-flight budget (default:
	// all). Outcomes are bit-identical at any setting when Market.Seed is
	// set.
	MaxConcurrentCoalitions int
	// Tiers makes each epoch's settlement hierarchical, exactly as
	// GridConfig.Tiers: consecutive coalitions roll up through districts
	// and regions, netting surplus against deficit at every level before
	// the remainder touches the tariff. Empty means flat settlement.
	Tiers []int
	// Store, when set, makes the simulation durable: each coalition's
	// blocks, key fingerprints and aggregate persist as it completes
	// (scopes "e00-c00", …), the position book and an epoch checkpoint
	// commit at every epoch boundary, and the run's own configuration is
	// embedded in each checkpoint — so a killed simulation resumes from
	// the last completed epoch with Resume, replaying the remaining epochs
	// bit-identically when Market.Seed is set. A store error aborts the run.
	Store Store `json:"-"`
	// Epochs is the number of trading days to simulate (required, ≥ 1).
	Epochs int
	// Churn configures the churn model applied at each epoch boundary,
	// drawn from the fleet seed. Its Epochs field is taken from Epochs
	// above: leave it 0, or set it equal.
	Churn ChurnConfig
}

// LiveGrid is a fleet evolution ready to trade: the churn schedule and
// every epoch's roster and trace are fixed at construction, so the
// simulation's membership history is inspectable before any protocol runs.
type LiveGrid struct {
	cfg grid.LiveConfig
	evo *dataset.Evolution
	// owned is the store Resume opened on the caller's behalf (nil for
	// grids built with NewLiveGrid, whose caller owns its store).
	owned Store
}

// ResumedEpoch returns the checkpoint epoch this grid resumes after, or −1
// for a fresh (non-resumed) simulation. A resumed Run or Stream skips every
// epoch up to and including it.
func (lg *LiveGrid) ResumedEpoch() int {
	if lg.cfg.Resume == nil {
		return -1
	}
	return lg.cfg.Resume.Epoch
}

// Close releases the store a Resume opened for this grid. It is a no-op —
// and the caller keeps ownership of its own store — for grids built with
// NewLiveGrid.
func (lg *LiveGrid) Close() error {
	if lg.owned == nil {
		return nil
	}
	st := lg.owned
	lg.owned = nil
	return st.Close()
}

// NewLiveGrid validates the config and synthesizes the fleet evolution:
// the base fleet from the fleet config, then Epochs−1 seeded churn
// boundaries. The evolution is deterministic given the fleet seed and the
// churn config; a statically-bad config (unknown partition strategy,
// negative budgets, a Market every coalition would refuse, churn the run
// cannot honour) fails here, before any protocol runs.
func NewLiveGrid(cfg LiveGridConfig, fleet FleetConfig) (*LiveGrid, error) {
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("pem: LiveGridConfig.Epochs must be ≥ 1, got %d", cfg.Epochs)
	}
	if cfg.Churn.Epochs != 0 && cfg.Churn.Epochs != cfg.Epochs {
		return nil, fmt.Errorf("pem: LiveGridConfig.Churn.Epochs %d disagrees with Epochs %d (leave it 0)", cfg.Churn.Epochs, cfg.Epochs)
	}
	lcfg, err := cfg.lower()
	if err != nil {
		return nil, err
	}
	if cfg.Store != nil {
		// Embed the run's own configuration in every checkpoint so Resume
		// can rebuild the simulation from the store file alone. Store
		// fields carry `json:"-"`; everything else round-trips exactly.
		lcfg.CheckpointMeta, err = json.Marshal(resumeMeta{Live: cfg, Fleet: fleet})
		if err != nil {
			return nil, fmt.Errorf("pem: marshal checkpoint config: %w", err)
		}
	}
	churn := cfg.Churn
	churn.Epochs = cfg.Epochs
	evo, err := dataset.Evolve(fleet, churn)
	if err != nil {
		return nil, fmt.Errorf("pem: %w", err)
	}
	return &LiveGrid{cfg: lcfg, evo: evo}, nil
}

// lower maps the public grid configuration — the one-shot grid's arrives
// through GridConfig.live — onto the supervisor's and validates it, so a
// statically-bad config fails at construction.
func (cfg LiveGridConfig) lower() (grid.LiveConfig, error) {
	if cfg.Market.Store != nil {
		return grid.LiveConfig{}, errors.New("pem: a grid refuses Market.Store; set GridConfig.Store or LiveGridConfig.Store")
	}
	lcfg := grid.LiveConfig{
		Grid: grid.Config{
			Engine:        cfg.Market.coreConfig(),
			MaxConcurrent: cfg.MaxConcurrentCoalitions,
			Tiers:         cfg.Tiers,
			Store:         cfg.Store,
		},
		Coalitions: cfg.Coalitions,
		Partition:  grid.Strategy(cfg.Partition),
	}
	if err := lcfg.Validate(); err != nil {
		return lcfg, fmt.Errorf("pem: %w", err)
	}
	return lcfg, nil
}

// Events returns the full churn schedule, ordered by epoch: which agents
// join, depart and fail at each boundary. Fixed at construction.
func (lg *LiveGrid) Events() []ChurnEvent {
	return append([]ChurnEvent(nil), lg.evo.Events...)
}

// Rosters returns each epoch's roster as agent IDs, in epoch order.
func (lg *LiveGrid) Rosters() [][]string {
	out := make([][]string, len(lg.evo.Epochs))
	for e, ef := range lg.evo.Epochs {
		out[e] = make([]string, len(ef.Trace.Homes))
		for i, h := range ef.Trace.Homes {
			out[e][i] = h.ID
		}
	}
	return out
}

// Run executes the live simulation: one trading day per epoch, with
// re-partitioning and coalition re-keying at every churn boundary and
// settlement carried across epochs per agent. Epochs run in order; within
// an epoch coalitions run concurrently with the one-shot grid's fail-fast
// semantics. On failure the returned LiveGridResult still carries all
// completed epochs plus the partial one. Run keeps every epoch's full
// payload; Stream releases each one once its sink returns.
func (lg *LiveGrid) Run(ctx context.Context) (*LiveGridResult, error) {
	return lg.run(ctx, nil)
}

// Stream executes the same simulation as Run but delivers each epoch's
// full outcome to sink as soon as its flows are settled into the position
// book, then releases the epoch's heavy payload once the sink returns. The
// returned LiveGridResult carries the cross-epoch fold — positions,
// conservation, windows, traffic, re-key and trading time — with Epochs
// nil, so an unbounded simulation runs in the memory of one epoch. The
// *EpochResult is valid only during the sink call; a sink error aborts the
// simulation, and a nil sink is refused. With Market.Seed set, a Stream is
// bit-identical to Run at any sink consumption speed.
func (lg *LiveGrid) Stream(ctx context.Context, sink func(*EpochResult) error) (*LiveGridResult, error) {
	if sink == nil {
		return nil, errors.New("pem: LiveGrid.Stream needs a sink (use Run)")
	}
	return lg.run(ctx, sink)
}

// run is Run (nil sink) and Stream.
func (lg *LiveGrid) run(ctx context.Context, sink func(*EpochResult) error) (*LiveGridResult, error) {
	res, err := grid.RunLive(ctx, lg.cfg, lg.evo, sink)
	if err != nil {
		return res, fmt.Errorf("pem: %w", err)
	}
	return res, nil
}
