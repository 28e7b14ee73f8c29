package core

import (
	"crypto/ecdh"
	"io"
	"sort"
	"sync"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// This file is the session layer of the engine's three-layer split:
//
//	session (Party)  — long-lived per-party state, independent of any window
//	protocol run     — one window's roster, randomness and tags (window.go)
//	scheduler        — bounded-parallel window execution (scheduler.go)
//
// A Party owns exactly the state that outlives a trading window: its
// Paillier key pair, the fleet key directory and its transport endpoint
// (the idle-time pre-encryption pools live on the directory's keys, not
// here). Everything window-scoped — roster, message tags, the randomness
// stream feeding the masking nonce and the garbled circuit — lives in a
// windowRun, so several windows can be in flight on the same Party without
// sharing any mutable state.

// Party is one agent's protocol endpoint.
type Party struct {
	agent market.Agent
	cfg   Config
	// scope namespaces the party's window tags (Resources.Scope; empty for
	// standalone parties).
	scope string

	conn transport.Conn
	key  *paillier.PrivateKey
	dir  map[string]*paillier.PublicKey // all parties' Paillier keys

	// allSorted is the sorted fleet roster, derived once from dir: coalition
	// membership changes every window, the fleet does not, so the role
	// announcement never rebuilds or re-sorts it.
	allSorted []string

	// runFree recycles windowRun objects (and the scratch buffers they
	// carry: role slices, roster backing store, hash inputs) across the
	// windows this party executes, so the scheduler pipeline reuses
	// per-window state instead of reallocating it each window.
	runFree sync.Pool

	// workers is the shared batch-crypto pool (see Resources.Workers).
	// Engine parties share one pool fleet-wide; standalone parties own
	// theirs.
	workers *paillier.Workers
	// refill lends workers and a randomness stream to the blinding-factor
	// pools this party takes from (see encryptUnder); shared fleet-wide
	// inside an engine, owned by a standalone party.
	refill *paillier.Refill

	// backend is the window crypto layer selected by Config.CryptoBackend;
	// stateless and shared by every window in flight.
	backend cryptoBackend

	// maskSeeds maps each peer to its hybrid mask seed (maskSeed), derived by
	// the engine or, from dh, by ExchangeKeys; nil in a paillier engine.
	maskSeeds map[string][]byte
	dh        *ecdh.PrivateKey           // a standalone party's X25519 key; nil in an engine
	peerDH    map[string]*ecdh.PublicKey // peers' X25519 keys, entered by ExchangeKeys (PairKey)
}

// newParty assembles a session from provisioned key material; cfg has
// passed Validate.
func newParty(cfg Config, scope string, agent market.Agent, conn transport.Conn, key *paillier.PrivateKey, dir map[string]*paillier.PublicKey, workers *paillier.Workers, refill *paillier.Refill, maskSeeds map[string][]byte, dh *ecdh.PrivateKey) *Party {
	return &Party{
		agent:     agent,
		cfg:       cfg,
		scope:     scope,
		conn:      conn,
		key:       key,
		dir:       dir,
		allSorted: sortedRoster(dir),
		workers:   workers,
		refill:    refill,
		backend:   backendFor(cfg.CryptoBackend),
		maskSeeds: maskSeeds,
		dh:        dh,
	}
}

// sortedRoster derives the sorted fleet roster from a key directory.
func sortedRoster(dir map[string]*paillier.PublicKey) []string {
	all := make([]string, 0, len(dir))
	for id := range dir {
		all = append(all, id)
	}
	sort.Strings(all)
	return all
}

// ID returns the party identifier.
func (p *Party) ID() string { return p.agent.ID }

// ReplaceConn swaps a party's transport: pem-agent seals it with secchan once
// ExchangeKeys has keyed the channels, benchmarks and tests wrap it.
func (p *Party) ReplaceConn(c transport.Conn) { p.conn = c }

// windowRandom derives the randomness stream for one window's protocol run.
// Each (party, window) pair gets an independent stream, which serves two
// purposes: concurrent windows never contend on a shared (non-thread-safe)
// PRNG, and a seeded engine produces bit-identical outcomes no matter how
// the scheduler interleaves windows. putRun returns the stream to the pool
// in core.go.
func (p *Party) windowRandom(window int) io.Reader {
	return seededStream(p.cfg, p.agent.ID, "protocol/w", window)
}

// Close waits out the blinding-factor fills the standalone party started.
// Parties inside an Engine are closed by Engine.Close, which first drains
// in-flight windows — so Close must not be called on engine parties.
func (p *Party) Close() {
	p.refill.Wait()
}
