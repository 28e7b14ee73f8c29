package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// This file supports standalone deployments where each party runs in its
// own process (cmd/pem-agent) over TCP, rather than inside an Engine.
// Protocol 1 line 2 — "Hi generates key pair and shares pki" — is realized
// by ExchangeKeys.

// keyExchangeTag is the tag for the Paillier public-key broadcast.
const keyExchangeTag = "keys/paillier"

// NewStandaloneParty creates a self-contained party: it generates its own
// Paillier key pair and will discover peers' keys via ExchangeKeys.
func NewStandaloneParty(cfg Config, agent market.Agent, conn transport.Conn) (*Party, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := agent.Validate(); err != nil {
		return nil, err
	}
	if conn == nil {
		return nil, errors.New("core: nil transport")
	}
	if conn.Party() != agent.ID {
		return nil, fmt.Errorf("core: transport party %q != agent %q", conn.Party(), agent.ID)
	}
	if cfg.CryptoBackend == BackendHybrid {
		// The hybrid backend's pairwise mask seeds are engine-provisioned;
		// a standalone fleet would need a pairwise DH handshake grafted
		// onto ExchangeKeys to establish them. Until that exists, fail
		// loudly instead of running a window that deadlocks on missing
		// seeds.
		return nil, errors.New("core: hybrid backend not supported for standalone parties (mask seeds are engine-provisioned); use the paillier backend")
	}
	key, err := NewKeyRing(cfg).key(agent.ID)
	if err != nil {
		return nil, fmt.Errorf("core: keygen: %w", err)
	}
	dir := map[string]*paillier.PublicKey{agent.ID: &key.PublicKey}
	workers := paillier.NewWorkers(0)
	refill := paillier.NewRefill(workers, partyRandom(cfg, agent.ID, "pool"))
	return newParty(cfg, "", agent, conn, key, dir, workers, refill, nil), nil
}

// ExchangeKeys broadcasts this party's Paillier public key to every peer
// and collects theirs, populating the key directory. All parties must call
// it with the same peer roster (excluding themselves is allowed; the local
// ID is skipped).
func (p *Party) ExchangeKeys(ctx context.Context, peers []string) error {
	raw, err := p.key.PublicKey.MarshalBinary()
	if err != nil {
		return err
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for _, id := range sorted {
		if id == p.ID() {
			continue
		}
		if err := p.conn.Send(ctx, id, keyExchangeTag, raw); err != nil {
			return fmt.Errorf("core: send key to %s: %w", id, err)
		}
	}
	for _, id := range sorted {
		if id == p.ID() {
			continue
		}
		data, err := p.conn.Recv(ctx, id, keyExchangeTag)
		if err != nil {
			return fmt.Errorf("core: recv key from %s: %w", id, err)
		}
		var pk paillier.PublicKey
		if err := pk.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("core: bad key from %s: %w", id, err)
		}
		if pk.Bits() < p.cfg.KeyBits-1 {
			return fmt.Errorf("core: %s offered a %d-bit key, expected ≥%d", id, pk.Bits(), p.cfg.KeyBits-1)
		}
		p.dir[id] = &pk
	}
	// The key directory just grew: refresh the cached fleet roster the
	// role-announcement phase iterates every window.
	p.allSorted = sortedRoster(p.dir)
	return nil
}

// PartyOutcome is the public result of one window as seen by a standalone
// party, plus the trades it participated in as the initiating side.
type PartyOutcome struct {
	// Window is the trading-window number.
	Window int
	// Kind is the evaluated market regime.
	Kind market.Kind
	// Price is the effective trading price in cents/kWh.
	Price float64
	// Degenerate marks windows with an empty coalition (no protocols run).
	Degenerate bool
	// SellerCount is the seller-coalition size.
	SellerCount int
	// BuyerCount is the buyer-coalition size.
	BuyerCount int
	// Trades are the allocations this party initiated as a seller.
	Trades []market.Trade
}

// RunTradingWindow executes Protocol 1 for one window from this party's
// side. Every party in the key directory must call it with the same
// non-negative window number concurrently.
func (p *Party) RunTradingWindow(ctx context.Context, window int, input market.WindowInput) (*PartyOutcome, error) {
	if window < 0 {
		return nil, fmt.Errorf("core: negative window %d", window)
	}
	if len(p.dir) < 2 {
		return nil, errors.New("core: key directory not populated; call ExchangeKeys first")
	}
	rep, err := p.runWindow(ctx, window, input)
	if err != nil {
		return nil, err
	}
	return &PartyOutcome{
		Window:      window,
		Kind:        rep.kind,
		Price:       rep.price,
		Degenerate:  rep.degenerate,
		SellerCount: rep.sellerCount,
		BuyerCount:  rep.buyerCount,
		Trades:      rep.sellerTrades,
	}, nil
}
