// Package core implements the Private Energy Market protocol engine —
// Protocols 1–4 of the paper — on top of the Paillier, garbled-circuit,
// OT and transport substrates.
//
// Each agent is a Party running its own sequential protocol program,
// typically on its own goroutine (mirroring the paper's one-container-per-
// agent deployment). Within a trading window (Protocol 1) the parties:
//
//  1. announce their buyer/seller/off role (coalition membership is public;
//     the underlying net energy is not),
//  2. run Private Market Evaluation (Protocol 2): two nonce-masked Paillier
//     ring aggregations followed by a garbled-circuit comparison of the
//     masked totals Rb and Rs (the hybrid backend: one masked fold whose
//     sink opens E_b − E_s),
//  3. in a general market, run Private Pricing (Protocol 3): ring
//     aggregation of the sellers' k_i and g_i+1+ε_i·b_i−b_i under a random
//     buyer's key, who computes and broadcasts the clamped equilibrium
//     price (Eq. 13–14),
//  4. run Private Distribution (Protocol 4): the demand side aggregates its
//     total under a random counterparty key, each member homomorphically
//     multiplies the encrypted total by the fixed-point reciprocal of its
//     own share, the counterparty decrypts and broadcasts only the
//     allocation ratios, and the pairwise trades e_ij are routed and paid.
//
// The paper "randomly chooses" the special parties Hr1, Hr2, Hb, Hs; this
// implementation derives them from a public coin (SHA-256 over the window
// number and the coalition rosters) so that all parties agree without a
// trusted dealer — equivalent under the semi-honest model.
package core

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/netem"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// Config holds the public protocol parameters shared by every party.
type Config struct {
	// KeyBits is the Paillier modulus size (the paper sweeps 512/1024/2048).
	KeyBits int
	// Params are the public market prices and bounds.
	Params market.Params
	// PreEncrypt enables background pre-computation of Paillier blinding
	// factors (the paper's idle-time encryption): it takes encryption off
	// the critical path, not decryption or scalar multiplication.
	PreEncrypt bool
	// CryptoBackend selects the window crypto layer: "paillier" (default;
	// the paper's construction — every phase on homomorphic encryption plus
	// the garbled-circuit comparison) or "hybrid" (every sum of Protocols
	// 2–4 on seeded additive masking, Protocol 2 one fold that Hr1 opens as
	// E_b−E_s, Paillier kept only for Protocol 4's single-decryptor ratio
	// step and the two encryptions that hand it the masked total). Outcomes
	// are bit-identical; the hybrid backend trades Protocol 2's privacy (Hr1
	// learns E_b−E_s) for a ≈ 3× (32 homes, 1024-bit keys) to ≈ 5× (8 homes)
	// window speedup — see DESIGN.md §7.
	CryptoBackend string
	// Aggregation selects the encrypted-sum topology for the masked ring
	// aggregations of Protocol 2 and the demand-side total of Protocol 4:
	// "ring" (default; the paper's O(n) sequential chain) or "tree"
	// (log-depth binary reduction — each partial sum stays encrypted under
	// the sink's key, so the leakage profile is unchanged).
	Aggregation string
	// Network selects a network-emulation topology preset (see
	// netem.Presets: "lan", "metro", "wan", "cellular", "lossy"). When set,
	// every endpoint is wrapped in the deterministic emulation layer: all
	// window traffic is priced against seeded per-link latency, jitter,
	// bandwidth and loss models on a virtual clock — no wall-clock sleeps —
	// and each WindowResult reports its critical-path virtual latency and
	// protocol round count. Empty disables emulation.
	Network string
	// Seed, when non-nil, makes the whole engine deterministic: party
	// randomness is derived from it. Production deployments leave it nil
	// (crypto/rand).
	Seed *int64
}

func (c Config) withDefaults() Config {
	if c.KeyBits == 0 {
		c.KeyBits = 1024
	}
	if c.Params == (market.Params{}) {
		c.Params = market.DefaultParams()
	}
	if c.Aggregation == "" {
		c.Aggregation = AggregationRing
	}
	if c.CryptoBackend == "" {
		c.CryptoBackend = BackendPaillier
	}
	return c
}

// Aggregation topologies (Config.Aggregation).
const (
	AggregationRing = "ring"
	AggregationTree = "tree"
)

// Validate checks the configuration as an engine will run it: zero fields
// take their defaults first.
func (c Config) Validate() error {
	c = c.withDefaults()
	if floor := 2*paillier.SlotBits + 8; c.KeyBits < floor {
		return fmt.Errorf("core: key size %d too small: Protocol 3's packed pair needs two %d-bit plaintext slots (min %d)", c.KeyBits, paillier.SlotBits, floor)
	}
	if c.Aggregation != AggregationRing && c.Aggregation != AggregationTree {
		return fmt.Errorf("core: unknown aggregation topology %q", c.Aggregation)
	}
	if c.CryptoBackend != BackendPaillier && c.CryptoBackend != BackendHybrid {
		return fmt.Errorf("core: unknown crypto backend %q (have %q, %q)", c.CryptoBackend, BackendPaillier, BackendHybrid)
	}
	if c.Network != "" && !slices.Contains(netem.Presets(), c.Network) {
		return fmt.Errorf("core: unknown network topology %q (have %v)", c.Network, netem.Presets())
	}
	return c.Params.Validate()
}

// Engine coordinates a fleet of parties through trading windows. It is the
// experimenter's harness: it provisions keys, owns the transport, launches
// the per-party protocol programs and aggregates the public outcome. It
// never injects private data into the protocols themselves.
//
// The engine is the fleet-wide face of the session layer (see session.go):
// it owns the per-party sessions and their lifecycle. Window execution goes
// through the scheduler (scheduler.go), which runs up to windowDepth
// windows concurrently.
//
// An engine does not necessarily own its heavyweight infrastructure: it
// *borrows* the transport bus and the crypto worker pool when a caller
// provides them (see Resources and NewEngineWith), which is how a coalition
// grid runs many engines over one bus and one bounded pool.
type Engine struct {
	scope   string // Resources.Scope
	bus     *transport.Bus
	network *netem.Network // nil unless Config.Network selects a topology
	workers *paillier.Workers
	refill  *paillier.Refill // background blinding-factor fills, drained by Close
	parties []*Party

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // one unit per window being executed
}

// ErrEngineClosed is returned for windows scheduled after Close.
var ErrEngineClosed = errors.New("core: engine closed")

// Resources are the shared infrastructure an engine can borrow instead of
// provisioning its own. A nil resource means "own it": a nil Bus gives
// the engine a private in-memory bus, a nil Workers a private crypto pool
// of runtime.NumCPU() workers, a nil Keys a private key ring.
type Resources struct {
	// Bus is the transport connecting this engine's parties. When shared by
	// several engines, each engine must have a distinct Scope (rosters must
	// be disjoint too: party registration enforces it) and registers only
	// its own parties.
	Bus *transport.Bus
	// Scope namespaces every window tag the engine emits on Bus (see
	// transport.ScopedWindowTag). Empty for an engine alone on its bus; a
	// coalition grid gives each coalition's engine its own, so concurrent
	// coalitions can reuse window numbers without cross-talk and keep
	// disjoint byte accounting.
	Scope string
	// Workers is the bounded batch-crypto pool: Hs's packed decryptions of
	// the Protocol 4 masked ciphertexts, key generation and blinding-factor
	// refill run across it. Lending one pool to every engine of a grid
	// bounds the whole grid's crypto parallelism; the pool has no lifecycle,
	// so nothing is released. Outcomes are bit-identical at any pool size.
	Workers *paillier.Workers
	// Keys is the ring the engine's parties get their key pairs from: a home
	// the ring already holds keeps its pair, the rest are generated into it.
	// A ring outlives the engines that borrow it; Close releases no key.
	Keys *KeyRing
}

// NewEngine provisions keys and transport endpoints for the agents, owning
// all of its infrastructure — the solo-market configuration.
func NewEngine(cfg Config, agents []market.Agent) (*Engine, error) {
	return NewEngineWith(cfg, agents, Resources{})
}

// NewEngineWith provisions keys for the agents over the given shared
// resources. It is the constructor behind a coalition grid: many engines,
// one bus, one crypto pool, disjoint rosters and namespaces.
func NewEngineWith(cfg Config, agents []market.Agent, res Resources) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if res.Scope != "" && !transport.ValidScope(res.Scope) {
		return nil, fmt.Errorf("core: invalid scope %q (letters, digits, '.', '_', '-'; not a w<n> window prefix)", res.Scope)
	}
	if len(agents) < 2 {
		return nil, errors.New("core: need at least two agents")
	}
	seen := make(map[string]bool, len(agents))
	for _, a := range agents {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if seen[a.ID] {
			return nil, fmt.Errorf("core: duplicate agent ID %q", a.ID)
		}
		seen[a.ID] = true
	}

	bus := res.Bus
	if bus == nil {
		bus = transport.NewBus(nil)
	}
	e := &Engine{scope: res.Scope, bus: bus}

	// Network emulation: every endpoint of this engine is wrapped in the
	// virtual-clock layer. The network is engine-owned even over a shared
	// bus, and each window's state rides that window's context (runOne), so
	// sibling coalitions never interact.
	if cfg.Network != "" {
		var netSeed int64
		if cfg.Seed != nil {
			netSeed = *cfg.Seed
		}
		var err error
		e.network, err = netem.New(cfg.Network, netSeed)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// One crypto worker pool for the whole fleet: key generation,
	// intra-window parallel decryption and blinding-factor refill all run
	// across it, so total CPU parallelism stays bounded by the pool
	// size. A borrowed pool is additionally shared with sibling engines —
	// many coalitions provisioning at once still generate keys at the
	// pool's pace, not len(agents)×coalitions goroutines.
	e.workers = res.Workers
	if e.workers == nil {
		e.workers = paillier.NewWorkers(0)
	}

	e.refill = paillier.NewRefill(e.workers, partyRandom(cfg, "", "pool"))

	// Key pairs come from the ring (each agent generates its own in Protocol
	// 1 line 2 — once, so a home the ring already holds costs a look-up),
	// parallelized across agents through the shared pool.
	ring := res.Keys
	if ring == nil {
		ring = NewKeyRing(cfg)
	} else if ring.cfg.KeyBits != cfg.KeyBits {
		return nil, fmt.Errorf("core: key ring holds %d-bit keys, engine wants %d", ring.cfg.KeyBits, cfg.KeyBits)
	}
	keys := make([]*paillier.PrivateKey, len(agents))
	dhs := make([]*ecdh.PrivateKey, len(agents))
	keyErr := make([]error, len(agents))
	var wg sync.WaitGroup
	for i := range agents {
		e.workers.Go(&wg, func() { keys[i], dhs[i], keyErr[i] = ring.key(agents[i].ID, cfg.CryptoBackend == BackendHybrid) })
	}
	wg.Wait()
	for i, err := range keyErr {
		if err != nil {
			return nil, fmt.Errorf("core: keygen for %s: %w", agents[i].ID, err)
		}
	}

	dir := make(map[string]*paillier.PublicKey, len(agents))
	for i, a := range agents {
		dir[a.ID] = &keys[i].PublicKey
	}

	// Hybrid backend: one X25519 exchange per unordered pair (maskSeed), run
	// here rather than queued behind the pool's refill and decryption work.
	seeds := make([]map[string][]byte, len(agents))
	if cfg.CryptoBackend == BackendHybrid {
		for i := range seeds {
			seeds[i] = make(map[string][]byte, len(agents)-1)
			for j := range i {
				s, err := maskSeed(dhs[i], dhs[j].PublicKey(), e.scope, agents[i].ID, agents[j].ID)
				if err != nil {
					return nil, fmt.Errorf("core: mask seed for %s, %s: %w", agents[i].ID, agents[j].ID, err)
				}
				seeds[i][agents[j].ID], seeds[j][agents[i].ID] = s, s
			}
		}
	}

	e.parties = make([]*Party, len(agents))
	for i, a := range agents {
		conn, err := bus.Register(a.ID)
		if err != nil {
			e.releaseParties()
			return nil, err
		}
		if e.network != nil {
			conn = e.network.Wrap(conn)
		}
		e.parties[i] = newParty(cfg, e.scope, a, conn, keys[i], dir, e.workers, e.refill, seeds[i], nil)
	}
	return e, nil
}

// releaseParties unwinds a partially-constructed or closing engine: it
// deregisters the engine's endpoints from the (possibly shared) bus and
// drains the blinding-factor fills running on the worker pool.
func (e *Engine) releaseParties() {
	for _, p := range e.parties {
		if p != nil {
			p.conn.Close()
		}
	}
	e.refill.Wait()
}

// partyRandom derives a per-party randomness source: crypto/rand in
// production, or a seeded stream when Config.Seed is set.
func partyRandom(cfg Config, id, domain string) io.Reader {
	return seededStream(cfg, id, domain, -1)
}

// seededStream is the one derivation behind every seeded randomness source:
// a ChaCha8 stream keyed by the SHA-256 of "pem/<domain>[<window>]/<seed>/
// <id>" (the window number is appended to the domain when non-negative),
// built without fmt round trips and recycled through prngFree, so a
// steady-state window draws its stream allocation-free. An unseeded
// configuration gets crypto/rand.
func seededStream(cfg Config, id, domain string, window int) io.Reader {
	if cfg.Seed == nil {
		return rand.Reader
	}
	var arr [96]byte
	b := append(append(arr[:0], "pem/"...), domain...)
	if window >= 0 {
		b = strconv.AppendInt(b, int64(window), 10)
	}
	b = strconv.AppendInt(append(b, '/'), *cfg.Seed, 10)
	b = append(append(b, '/'), id...)
	r := prngFree.Get().(*mrand.ChaCha8)
	r.Seed(sha256.Sum256(b)) // O(1): the key is the state
	return r
}

// prngFree recycles the seeded streams of finished windows. Long-lived
// streams (key generation, refill) simply never return to the pool.
var prngFree = sync.Pool{New: func() any { return mrand.NewChaCha8([32]byte{}) }}

// releasePRNG returns a window's seeded stream to the pool once its run is
// done; crypto/rand readers pass through. The caller must not retain the
// reader afterwards.
func releasePRNG(r io.Reader) {
	if m, ok := r.(*mrand.ChaCha8); ok {
		prngFree.Put(m)
	}
}

// Metrics exposes the bus's transport byte totals (Table I); each window's
// own figures are in its WindowResult.
func (e *Engine) Metrics() *transport.Metrics { return e.bus.Metrics() }

// PoolStats sums the health counters of the fleet's blinding-factor pools,
// one per party key, so harnesses can detect a degraded pool (misses piling
// up). A pool lives with its key: over a borrowed key ring the counters
// include what earlier engines took under the same keys.
func (e *Engine) PoolStats() paillier.PoolStats {
	var agg paillier.PoolStats
	for _, p := range e.parties {
		agg.Add(p.key.Pool().Stats())
	}
	return agg
}

// Parties returns the party handles (tests use this for fault injection).
func (e *Engine) Parties() []*Party { return e.parties }

// KeyFingerprint identifies one party's provisioned Paillier key material
// by public data only: the SHA-256 of its public modulus. Fingerprints are
// what the durability layer records per (epoch, coalition) — enough to
// audit which key every member traded under, while the private keys never
// leave their parties.
type KeyFingerprint struct {
	// Party is the key holder's agent ID.
	Party string
	// Digest is the SHA-256 of the party's public modulus bytes.
	Digest [32]byte
}

// KeyFingerprints returns the engine's provisioned key fingerprints,
// sorted by party ID. A seeded engine's fingerprints are deterministic, and
// a home's is the same in every engine keyed from one ring or one seed: in
// a live grid a survivor keeps its fingerprint across epochs, a joiner
// brings one never seen before (see the live-grid key-continuity tests).
func (e *Engine) KeyFingerprints() []KeyFingerprint {
	out := make([]KeyFingerprint, len(e.parties))
	for i, p := range e.parties {
		out[i] = KeyFingerprint{Party: p.agent.ID, Digest: sha256.Sum256(p.key.N.Bytes())}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Party < out[j].Party })
	return out
}

// beginWindow registers one window execution with the session lifecycle.
// It fails once Close has been called, so a closing engine stops admitting
// new windows while the ones already in flight drain.
func (e *Engine) beginWindow() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.inflight.Add(1)
	return nil
}

func (e *Engine) endWindow() { e.inflight.Done() }

// Close shuts the session layer down: it stops admitting new windows,
// drains the ones in flight, and only then releases the engine's transport
// endpoints (deregistering them from a shared bus) and waits out the
// blinding-factor fills it started. Keys, and the pools hanging off them,
// belong to the key ring. Close is idempotent and safe to call
// concurrently with running windows.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.inflight.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.inflight.Wait()
	e.releaseParties()
}

// WindowResult is the public outcome of one trading window, as observed by
// the experiment harness.
type WindowResult struct {
	// Window is the trading-window number.
	Window int
	// Kind is the evaluated market regime.
	Kind market.Kind
	// Price is the effective trading price in cents/kWh (the grid retail
	// price in seller-less windows).
	Price float64
	// PHat is the unclamped Eq. 13 price (0 when Private Pricing did not
	// run). In a real deployment only the chosen buyer sees it.
	PHat float64
	// Trades are the pairwise allocations routed in Private Distribution.
	Trades []market.Trade
	// Degenerate marks windows with an empty coalition (no protocols run).
	Degenerate bool
	// SellerCount is the seller-coalition size (Fig 4).
	SellerCount int
	// BuyerCount is the buyer-coalition size (Fig 4).
	BuyerCount int
	// Duration is the wall-clock time of the window.
	Duration time.Duration
	// BytesOnWire is the transport traffic generated by the window.
	BytesOnWire int64
	// Messages is the number of protocol messages the window put on the
	// wire, across all parties.
	Messages int64
	// VirtualLatency is the window's critical-path latency on the emulated
	// network (Config.Network): the longest chain of link delays any party
	// waited out, measured on the virtual clock. Zero on unemulated runs.
	VirtualLatency time.Duration
	// Rounds is the window's protocol round count on the emulated network:
	// the longest chain of sequentially dependent messages. Zero on
	// unemulated runs.
	Rounds int
}

// runOne executes Protocol 1 for one window: it hands each party its
// private input and runs all parties concurrently until the window's
// trades complete. The derived context cancels only this window's parties,
// so a failure here never disturbs other windows in flight. The context
// also carries the window's one record of its traffic and, when emulated,
// of its network state; both go with it when the window ends.
func (e *Engine) runOne(ctx context.Context, window int, inputs []market.WindowInput) (*WindowResult, error) {
	if len(inputs) != len(e.parties) {
		return nil, fmt.Errorf("core: %d inputs for %d parties", len(inputs), len(e.parties))
	}
	// Refuse a share above the bound before any party sends a byte.
	for i, p := range e.parties {
		if _, err := inputs[i].Share(p.ID()); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(e.bus.Metrics().OpenWindow(ctx))
	defer cancel()
	if e.network != nil {
		ctx = e.network.OpenWindow(ctx)
	}

	reports := make([]*PartyOutcome, len(e.parties))
	errs := make([]error, len(e.parties))
	var wg sync.WaitGroup
	for i, p := range e.parties {
		wg.Add(1)
		go func(i int, p *Party) {
			defer wg.Done()
			pctx := ctx
			if e.network != nil {
				pctx = netem.WithClock(ctx) // the party's virtual time in this window
			}
			rep, err := p.runWindow(pctx, window, inputs[i])
			if err != nil {
				errs[i] = err
				cancel() // unblock peers waiting on this party
				return
			}
			reports[i] = rep
		}(i, p)
	}
	wg.Wait()
	res := &WindowResult{Window: window, Duration: time.Since(start)}
	res.BytesOnWire, res.Messages = transport.EndWindow(ctx)
	res.VirtualLatency, res.Rounds = netem.EndWindow(ctx)
	// Report the failure that stopped the window, not the "context
	// canceled" of a bystander that merely sorts first.
	var failed error
	for _, err := range errs {
		if err != nil && (failed == nil || errors.Is(failed, context.Canceled)) {
			failed = err
		}
	}
	if failed != nil {
		return nil, failed
	}

	// All parties observed the same public outcome; adopt the first
	// report and cross-check the rest.
	first := reports[0]
	res.Kind = first.Kind
	res.Price = first.Price
	res.Degenerate = first.Degenerate
	res.SellerCount = first.SellerCount
	res.BuyerCount = first.BuyerCount
	for _, rep := range reports {
		if rep.Kind != first.Kind || rep.Degenerate != first.Degenerate {
			return nil, errors.New("core: parties disagree on market outcome")
		}
		if diff := rep.Price - first.Price; diff > 1e-9 || diff < -1e-9 {
			return nil, errors.New("core: parties disagree on price")
		}
		if rep.pHat != 0 {
			res.PHat = rep.pHat
		}
		res.Trades = append(res.Trades, rep.Trades...)
	}
	sort.Slice(res.Trades, func(i, j int) bool {
		if res.Trades[i].Seller != res.Trades[j].Seller {
			return res.Trades[i].Seller < res.Trades[j].Seller
		}
		return res.Trades[i].Buyer < res.Trades[j].Buyer
	})
	return res, nil
}
