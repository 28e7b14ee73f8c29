// Package pem is the public API of the Private Energy Market — a Go
// implementation of "Privacy Preserving Distributed Energy Trading"
// (Xie, Wang, Hong, Thai; ICDCS 2020).
//
// PEM lets a fleet of agents (smart homes, microgrids) trade surplus
// energy with each other instead of only with the main grid, while keeping
// each agent's generation, load, battery schedule and utility preference
// private. Price discovery is a buyer-led Stackelberg game with a closed-
// form equilibrium; all computations run under Paillier homomorphic
// encryption and garbled-circuit secure comparison, with no trusted third
// party.
//
// # Quick start
//
//	agents := []pem.Agent{
//		{ID: "solar-roof", K: 85, Epsilon: 0.9},
//		{ID: "townhouse", K: 75, Epsilon: 0.85},
//		{ID: "ev-garage", K: 95, Epsilon: 0.9},
//	}
//	m, err := pem.NewMarket(pem.Config{KeyBits: 1024}, agents)
//	if err != nil { ... }
//	defer m.Close()
//
//	res, err := m.RunWindow(ctx, 0, []pem.WindowInput{
//		{Generation: 0.40, Load: 0.10}, // surplus: sells
//		{Generation: 0.00, Load: 0.25}, // deficit: buys
//		{Generation: 0.05, Load: 0.30}, // deficit: buys
//	})
//
// res.Price is the private Stackelberg price, res.Trades the pairwise
// allocations. The package examples (ExampleNewGrid, ExampleNewLiveGrid, …)
// are full runs with checked output; DESIGN.md describes the architecture.
package pem

import (
	"context"
	"errors"
	"fmt"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/netem"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// Re-exported model types. These aliases are the supported public names;
// the internal packages are not importable by downstream modules.
type (
	// Agent is one market participant (smart home / microgrid).
	Agent = market.Agent
	// WindowInput is an agent's private data for one trading window.
	WindowInput = market.WindowInput
	// Params are the public market prices and bounds.
	Params = market.Params
	// Trade is one pairwise transaction.
	Trade = market.Trade
	// Clearing is a plaintext market outcome (reference implementation).
	Clearing = market.Clearing
	// Kind distinguishes general and extreme markets.
	Kind = market.Kind
	// Role classifies an agent within a window.
	Role = market.Role
	// WindowResult is the public outcome of a private trading window.
	WindowResult = core.WindowResult
	// Ledger is the hash-chained trade log.
	Ledger = ledger.Ledger
	// TradeRecord is a ledger entry.
	TradeRecord = ledger.TradeRecord
	// Trace is a day of per-home generation/load/battery data.
	Trace = dataset.Trace
	// TraceConfig controls synthetic trace generation: size, seed, start
	// hour, laziness and the Scenario whose preset constants model the day.
	TraceConfig = dataset.Config
	// PoolStats is a snapshot of the pre-encryption pool health counters.
	PoolStats = paillier.PoolStats
)

// Re-exported enum values.
const (
	GeneralMarket = market.GeneralMarket
	ExtremeMarket = market.ExtremeMarket
	RoleSeller    = market.RoleSeller
	RoleBuyer     = market.RoleBuyer
	RoleOff       = market.RoleOff
)

// DefaultParams returns the paper's evaluation prices: grid feed-in 80,
// retail 120, PEM band [90, 110] cents/kWh.
func DefaultParams() Params { return market.DefaultParams() }

// Config configures a private market.
type Config struct {
	// KeyBits is the Paillier modulus size: 512, 1024 or 2048 in the
	// paper's sweep (default 1024; at least 256, the width of two
	// plaintext slots).
	KeyBits int
	// Params are the market prices (DefaultParams if zero).
	Params Params
	// PreEncrypt precomputes Paillier blinding factors in idle time
	// (default true, matching the paper's deployment).
	PreEncrypt *bool
	// Seed makes the run deterministic (tests/benchmarks only).
	Seed *int64
	// Aggregation selects the encrypted-sum topology for the coalition
	// aggregations of Protocols 2 and 4: AggregationRing (default, the
	// paper's O(n)-latency sequential chain) or AggregationTree (log-depth
	// binary reduction with the same leakage profile).
	Aggregation string
	// CryptoBackend selects the cryptographic realization of the window
	// protocols: BackendPaillier (default — the paper's construction,
	// Paillier everywhere) or BackendHybrid, which computes the coalition
	// aggregations of Protocols 2–4 over pairwise seeded additive masking
	// with fixed-width frames and keeps Paillier only for Protocol 4's
	// masked-reciprocal ratio step (two encryptions a window hand it the
	// masked demand total). Both backends produce bit-identical prices,
	// allocations and ledger chains; hybrid trades the stronger per-message
	// Paillier hiding for one-time pad masks whose pairwise seeds come from
	// X25519 exchanges (see DESIGN.md §7 for the threat-model comparison).
	CryptoBackend string
	// Network selects a deterministic network-emulation topology for the
	// market's transport: NetworkLAN, NetworkMetro, NetworkWAN,
	// NetworkCellular or NetworkLossy. When set, every protocol message is
	// priced against seeded per-link latency, jitter, bandwidth and loss
	// models on a virtual clock — runs stay as fast as the in-memory bus
	// (no wall-clock sleeps) and bit-identical under a fixed Seed — and
	// each WindowResult reports its critical-path VirtualLatency and
	// protocol Rounds over the emulated links. Empty (the default) disables
	// emulation.
	Network string
	// Store, when set, persists the market's committed artifacts as they
	// happen: the roster's key-material fingerprints at provisioning and
	// every ledger block at commit, under scope "market". A store error
	// fails the operation that hit it — durability failures must not pass
	// silently. Nil (the default) keeps the market purely in-memory. A
	// grid refuses it; set GridConfig.Store or LiveGridConfig.Store instead.
	Store Store `json:"-"`
}

// Aggregation topologies for Config.Aggregation.
const (
	AggregationRing = core.AggregationRing
	AggregationTree = core.AggregationTree
)

// Crypto backends for Config.CryptoBackend.
const (
	// BackendPaillier runs every protocol step under Paillier homomorphic
	// encryption with garbled-circuit comparison — the paper's construction.
	BackendPaillier = core.BackendPaillier
	// BackendHybrid replaces the Protocol 2–4 aggregations with seeded
	// additive masking over fixed-width integer frames (Protocol 2 is one
	// fold that Hr1 opens as E_b − E_s), keeping Paillier for Protocol 4's
	// ratio step. Outcomes are bit-identical to
	// BackendPaillier; per-window cost drops ≈ 3× at 32 homes and 1024-bit
	// keys, ≈ 5× on small coalitions.
	BackendHybrid = core.BackendHybrid
)

// Network-emulation topology presets for Config.Network.
const (
	// NetworkLAN emulates a switched local network (100µs links, gigabit
	// bandwidth) — the near-ideal baseline.
	NetworkLAN = netem.TopologyLAN
	// NetworkMetro emulates a metropolitan utility network (5ms links,
	// 200 Mbit/s).
	NetworkMetro = netem.TopologyMetro
	// NetworkWAN emulates a cross-region deployment (40ms links, 50 Mbit/s,
	// light loss).
	NetworkWAN = netem.TopologyWAN
	// NetworkCellular emulates smart meters on a cellular uplink (80ms
	// high-jitter links, 20 Mbit/s).
	NetworkCellular = netem.TopologyCellular
	// NetworkLossy emulates a degraded long-haul path (40ms links, 3% loss;
	// retransmission cost dominates).
	NetworkLossy = netem.TopologyLossy
)

// NetworkPresets lists the Config.Network topology presets in stable order.
func NetworkPresets() []string { return netem.Presets() }

// Market is a running private energy market.
type Market struct {
	cfg    Config
	engine *core.Engine
	agents []Agent
	ledger *Ledger
}

// coreConfig lowers the public config to the engine's. It is shared by
// NewMarket and the coalition grid (which runs one engine per coalition
// under this same configuration).
func (cfg Config) coreConfig() core.Config {
	return core.Config{
		KeyBits:       cfg.KeyBits,
		Params:        cfg.Params,
		PreEncrypt:    cfg.PreEncrypt == nil || *cfg.PreEncrypt,
		Seed:          cfg.Seed,
		Aggregation:   cfg.Aggregation,
		CryptoBackend: cfg.CryptoBackend,
		Network:       cfg.Network,
	}
}

// NewMarket provisions keys and transport for the agents and returns a
// ready market. Call Close when done.
func NewMarket(cfg Config, agents []Agent) (*Market, error) {
	if len(agents) == 0 {
		return nil, errors.New("pem: no agents")
	}
	eng, err := core.NewEngine(cfg.coreConfig(), agents)
	if err != nil {
		return nil, fmt.Errorf("pem: %w", err)
	}
	m := &Market{cfg: cfg, engine: eng, agents: append([]Agent(nil), agents...), ledger: ledger.New()}
	if cfg.Store != nil {
		for _, fp := range eng.KeyFingerprints() {
			rec := KeyRecord{Scope: marketScope, Party: fp.Party, Fingerprint: append([]byte(nil), fp.Digest[:]...)}
			if err := cfg.Store.PutKeyMaterial(rec); err != nil {
				eng.Close()
				return nil, fmt.Errorf("pem: store key material: %w", err)
			}
		}
		// Persist the genesis block up front so the stored chain verifies
		// end-to-end (FromBlocks) even before the first window commits.
		genesis, err := m.ledger.Block(0)
		if err == nil {
			err = cfg.Store.AppendBlock(marketScope, genesis)
		}
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("pem: store genesis: %w", err)
		}
	}
	return m, nil
}

// marketScope is the store scope a solo market persists under; grids use
// per-coalition scopes instead.
const marketScope = "market"

// Agents returns the roster.
func (m *Market) Agents() []Agent {
	return append([]Agent(nil), m.agents...)
}

// Ledger returns the market's hash-chained trade ledger (the paper's
// blockchain-deployment discussion): every committed window's trades and
// clearing price, in window order.
func (m *Market) Ledger() *Ledger { return m.ledger }

// Metrics exposes transport byte accounting (Table I).
func (m *Market) Metrics() *transport.Metrics { return m.engine.Metrics() }

// PoolStats aggregates the pre-encryption pool health counters across the
// fleet (all zeros when PreEncrypt is disabled). A growing Misses count
// means critical-path encryptions are paying the full exponentiation
// inline.
func (m *Market) PoolStats() PoolStats { return m.engine.PoolStats() }

// Close releases background resources. Closing while windows are in
// flight drains them first: running windows complete normally, windows
// scheduled afterwards fail with ErrMarketClosed.
func (m *Market) Close() { m.engine.Close() }

// ErrMarketClosed is returned for windows scheduled after Close.
var ErrMarketClosed = core.ErrEngineClosed

// WindowError is a window's one failure type: its fields name the window,
// the party, its Protocol 1 phase and a refused frame's peer and tag, each
// empty where unknown. Window failures returned by RunWindow, RunWindows,
// RunDay and StreamDay unwrap to it via errors.As. Errors that are not one
// window's failure — context cancellation before launch, ledger-append
// failures, a StreamDay sink error — are returned as-is.
type WindowError = core.WindowError

// RatioSumError refuses a window whose allocation ratios do not sum to 1;
// it is the cause inside the window's WindowError, which names the window.
type RatioSumError = core.RatioSumError

// ErrShareBound refuses, before any frame, a window in which an agent's
// |net energy| exceeds the public bound of 2^24 µkWh (≈ 16.8 kWh); the
// refusal names the agent. Clear refuses the same input.
var ErrShareBound = market.ErrShareBound

// RunWindow executes one private trading window (Protocol 1) — the
// depth-1 special case of the pipelined scheduler behind RunWindows.
func (m *Market) RunWindow(ctx context.Context, window int, inputs []WindowInput) (*WindowResult, error) {
	results, err := m.streamWindows(ctx, []core.WindowJob{{Window: window, Inputs: inputs}}, nil)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunWindows executes one private trading window per element of inputs,
// numbered by slice index, keeping two windows in flight concurrently.
// results[w] is window w's outcome; outcomes and ledger order are identical
// to running the windows sequentially. On failure the scheduler stops
// launching new windows, drains the in-flight ones (a failing window
// cancels only itself) and returns the earliest failed window's error;
// completed windows keep their slots in results.
func (m *Market) RunWindows(ctx context.Context, inputs [][]WindowInput) ([]*WindowResult, error) {
	jobs := make([]core.WindowJob, len(inputs))
	for w, in := range inputs {
		jobs[w] = core.WindowJob{Window: w, Inputs: in}
	}
	return m.streamWindows(ctx, jobs, nil)
}

// streamWindows runs jobs through the engine's scheduler, appending every
// completed window's trades to the ledger in strict window order — and,
// with Config.Store set, persisting each committed block before the result
// reaches the sink — so ledger, store and sink always agree on order.
func (m *Market) streamWindows(ctx context.Context, jobs []core.WindowJob, sink func(*WindowResult) error) ([]*WindowResult, error) {
	return m.engine.StreamWindows(ctx, jobs, func(res *WindowResult) error {
		blk, err := m.ledger.Append(res.Window, res.Price, ledger.RecordsFromTrades(res.Trades))
		if err != nil {
			return fmt.Errorf("pem: ledger append: %w", err)
		}
		if m.cfg.Store != nil {
			if err := m.cfg.Store.AppendBlock(marketScope, blk); err != nil {
				return fmt.Errorf("pem: store block: %w", err)
			}
		}
		if sink != nil {
			return sink(res)
		}
		return nil
	})
}

// Clear computes the plaintext reference outcome for one window — what the
// market would decide with full information. The private protocols must
// (and the tests assert they do) reproduce it to fixed-point precision.
func Clear(agents []Agent, inputs []WindowInput, params Params) (*Clearing, error) {
	return market.Clear(agents, inputs, params)
}

// BaselineClear computes the paper's "without PEM" benchmark: all agents
// trade only with the main grid.
func BaselineClear(agents []Agent, inputs []WindowInput, params Params) (*Clearing, error) {
	return market.BaselineClear(agents, inputs, params)
}

// GenerateTrace synthesizes a day of smart-home data (see TraceConfig).
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	return dataset.Generate(cfg)
}
