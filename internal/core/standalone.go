package core

import (
	"context"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// This file supports standalone deployments where each party runs in its
// own process (cmd/pem-agent) over TCP, rather than inside an Engine.
// Protocol 1 line 2 — "Hi generates key pair and shares pki" — is realized
// by ExchangeKeys.

// keyExchangeTag tags the key broadcast: Paillier key ‖ 32-byte X25519 key.
const keyExchangeTag = "keys/paillier"

// NewStandaloneParty creates a self-contained party on either backend: it
// generates its own keys and agrees peers' keys and mask seeds in ExchangeKeys.
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
	key, dh, err := NewKeyRing(cfg).key(agent.ID, true)
	if err != nil {
		return nil, fmt.Errorf("core: keygen: %w", err)
	}
	dir := map[string]*paillier.PublicKey{agent.ID: &key.PublicKey}
	workers := paillier.NewWorkers(0)
	refill := paillier.NewRefill(workers, partyRandom(cfg, agent.ID, "pool"))
	p := newParty(cfg, "", agent, conn, key, dir, workers, refill, map[string][]byte{}, dh)
	p.peerDH = map[string]*ecdh.PublicKey{}
	return p, nil
}

// peerError names the peer ExchangeKeys refused.
type peerError struct {
	peer string
	err  error
}

func (e *peerError) Error() string { return "core: key exchange with " + e.peer + ": " + e.err.Error() }
func (e *peerError) Unwrap() error { return e.err }

// ExchangeKeys sends every peer this party's Paillier and X25519 public keys
// in one frame, and enters each peer's keys and mask seed as its frame comes:
// the party's whole handshake, which also keys its channels (PairKey).
// All parties pass the same roster (the local ID is skipped). A peer listed
// twice or sending unsound keys fails with a *peerError and gets no entry.
func (p *Party) ExchangeKeys(ctx context.Context, peers []string) error {
	sorted := slices.DeleteFunc(slices.Sorted(slices.Values(peers)), func(id string) bool { return id == p.ID() })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return &peerError{sorted[i], errors.New("listed twice")}
		}
	}
	raw, err := p.key.PublicKey.MarshalBinary()
	if err != nil {
		return err
	}
	raw = append(raw, p.dh.PublicKey().Bytes()...)
	for _, id := range sorted {
		if err := p.conn.Send(ctx, id, keyExchangeTag, raw); err != nil {
			return &peerError{id, err}
		}
	}
	for _, id := range sorted {
		data, err := p.conn.Recv(ctx, id, keyExchangeTag)
		if err != nil {
			return &peerError{id, err}
		}
		cut := max(len(data)-32, 0) // a shorter frame fails as a Paillier key
		var pk paillier.PublicKey
		if err := pk.UnmarshalBinary(data[:cut]); err != nil {
			return &peerError{id, err}
		}
		if pk.Bits() < p.cfg.KeyBits-1 {
			return &peerError{id, fmt.Errorf("offered a %d-bit key, expected ≥%d", pk.Bits(), p.cfg.KeyBits-1)}
		}
		x, err := ecdh.X25519().NewPublicKey(data[cut:])
		if err != nil {
			return &peerError{id, err}
		}
		seed, err := maskSeed(p.dh, x, p.scope, p.ID(), id)
		if err != nil {
			return &peerError{id, err}
		}
		p.dir[id], p.maskSeeds[id], p.peerDH[id] = &pk, seed, x
	}
	// The key directory just grew: refresh the cached fleet roster the
	// role-announcement phase iterates every window.
	p.allSorted = sortedRoster(p.dir)
	return nil
}

// PairKey returns HKDF-Extract(salt, X25519(this party's scalar, peer's key)),
// that is HMAC-SHA256 keyed by salt, for a peer ExchangeKeys entered: the key
// source secchan.New expands into the pair's channel key. The scalar and the
// shared secret never leave the party.
func (p *Party) PairKey(peer string, salt []byte) ([]byte, error) {
	pub, ok := p.peerDH[peer]
	if !ok {
		return nil, fmt.Errorf("core: no key exchanged with %s", peer)
	}
	secret, err := p.dh.ECDH(pub)
	if err != nil {
		return nil, err
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(secret)
	return mac.Sum(nil), nil
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

	pHat float64 // the unclamped price, known to Hb alone (WindowResult.PHat)
}

// RunTradingWindow executes Protocol 1 for one window from this party's
// side. Every party in the key directory must call it with the same
// non-negative window number concurrently. A failure is a *WindowError.
func (p *Party) RunTradingWindow(ctx context.Context, window int, input market.WindowInput) (*PartyOutcome, error) {
	if window < 0 {
		return nil, &WindowError{Window: window, Err: errors.New("negative window")}
	}
	if len(p.dir) < 2 {
		return nil, &WindowError{Window: window, Err: errors.New("key directory not populated; call ExchangeKeys first")}
	}
	out, err := p.runWindow(ctx, window, input)
	if err != nil {
		we := asWindowError(err)
		we.Window = window
		return nil, we
	}
	return out, nil
}
