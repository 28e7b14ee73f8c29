// Package store is the durability boundary of the market: a small Store
// interface over the artifacts the protocol stack must not lose across a
// crash — tamper-evident ledger blocks, cross-epoch agent positions,
// per-(epoch, coalition) key-material fingerprints, and live-grid epoch
// checkpoints — with two implementations: an in-memory default (Mem) and
// an append-only, CRC-checked file WAL (WAL) whose replay-on-open recovery
// truncates a torn tail.
//
// The store only ever sees what the settlement harness already observes:
// committed ledger blocks, oracle-derived aggregates and public key
// fingerprints. Protocol-private data (bids, generation, load, secret
// keys) never reaches it, so persistence does not widen the threat model.
//
// Write ordering is the contract that makes crash recovery exact: the grid
// persists each coalition's blocks and aggregates as they stream, and the
// live grid commits a Checkpoint only after every one of the epoch's
// records is down. A resumed run therefore restarts from the last
// checkpoint and replays forward; records from a partially-persisted epoch
// are superseded on replay (appending a genesis block resets its scope's
// chain, aggregates and key records are latest-wins upserts).
package store

import (
	"errors"

	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
)

// Aggregate is one coalition-day's O(1) settlement fold: the residual
// position, window count and ledger chain head that survive the streaming
// payload release. Folded coalitions persist theirs too — a folded roster's
// grid-tariff position is real settlement state.
type Aggregate struct {
	// Scope is the coalition's transport scope ("c00", "e01-c02", …) —
	// unique per (epoch, coalition), which is what makes upserts safe.
	Scope string
	// Windows counts the coalition's completed trading windows.
	Windows int
	// ImportKWh and ExportKWh are the day-aggregate unmatched energy.
	ImportKWh, ExportKWh float64
	// ChainHead is the coalition ledger's final chain hash (empty for
	// folded coalitions, which run no private market).
	ChainHead string
	// Folded marks a coalition settled at the grid tariff instead of
	// running a private market.
	Folded bool
}

// KeyRecord fingerprints one party's per-(epoch, coalition) key material:
// the SHA-256 of its Paillier public modulus. The private key never leaves
// the engine; the fingerprint is enough to audit which key every member of
// every (epoch, coalition) traded under — the same one for as long as the
// home stayed, one never seen before for a joiner.
type KeyRecord struct {
	// Scope is the coalition's transport scope the key was provisioned for.
	Scope string
	// Party is the key holder's agent ID.
	Party string
	// Fingerprint is the SHA-256 digest of the party's public modulus.
	Fingerprint []byte
}

// ChainHead pairs a coalition scope with its ledger head hash inside a
// Checkpoint (a sorted slice, not a map, so encodings are deterministic).
type ChainHead struct {
	// Scope is the coalition's transport scope.
	Scope string
	// Head is the hex-rendered head hash (ledger.HashString).
	Head string
}

// Checkpoint is a live-grid resume point, written once per completed
// epoch after the epoch's flows, blocks, aggregates and key records are
// all persisted. It carries everything a resumed run needs to replay the
// remaining epochs bit-identically: the position book snapshot, the
// epoch's roster and chain heads for cross-checks, the base seed the
// per-epoch key/partition seeds derive from, and an opaque configuration
// blob (with its hash) so the public layer can rebuild the simulation.
type Checkpoint struct {
	// Epoch is the last completed epoch; a resumed run restarts at Epoch+1.
	Epoch int
	// Roster is the checkpointed epoch's agent IDs, in trace order.
	Roster []string
	// Positions is the full position-book snapshot after the epoch's flows.
	Positions []market.AgentPosition
	// ChainHeads are the checkpointed epoch's per-coalition ledger heads,
	// sorted by scope.
	ChainHeads []ChainHead
	// Seed is the simulation's base engine seed (0 when unseeded; an
	// unseeded run resumes but does not replay bit-identically).
	Seed int64
	// Config is an opaque configuration blob supplied by the caller
	// (the public layer stores its marshaled run configuration here).
	Config []byte
	// ConfigHash is the hex SHA-256 of Config, the guard against resuming
	// a WAL under a different configuration.
	ConfigHash string
}

// Store is the persistence interface the grid stack writes through. All
// methods are safe for concurrent use. Append/Put methods must be durable
// in order: a record is visible to the getters (and, for file-backed
// implementations, to a post-crash reopen) once its call returns.
//
// Replay semantics shared by all implementations: appending a block with
// Index 0 (a genesis) resets its scope's chain — a resumed epoch replays
// over its partial predecessor — and PutAggregate / PutKeyMaterial are
// latest-wins upserts keyed by scope and (scope, party) respectively.
type Store interface {
	// AppendBlock persists one committed ledger block under a coalition
	// scope. Blocks arrive in chain order; a genesis block resets the scope.
	AppendBlock(scope string, blk ledger.Block) error
	// Blocks returns a scope's persisted chain in append order (the latest
	// chain, when a replay reset the scope).
	Blocks(scope string) ([]ledger.Block, error)
	// Scopes lists every scope with at least one persisted block, sorted.
	Scopes() ([]string, error)
	// PutAggregate upserts a coalition-day's settlement fold.
	PutAggregate(agg Aggregate) error
	// Aggregates returns all aggregates, sorted by scope.
	Aggregates() ([]Aggregate, error)
	// UpsertPositions persists the position book's current per-agent state;
	// each position replaces any earlier record for the same agent ID.
	UpsertPositions(positions []market.AgentPosition) error
	// Positions returns the latest persisted position per agent, sorted by
	// agent ID.
	Positions() ([]market.AgentPosition, error)
	// PutKeyMaterial upserts one party's key fingerprint for a scope.
	PutKeyMaterial(rec KeyRecord) error
	// KeyMaterial returns all key records, sorted by (scope, party).
	KeyMaterial() ([]KeyRecord, error)
	// PutCheckpoint persists an epoch checkpoint. Implementations must make
	// it the new resume point atomically: a crash mid-write leaves the
	// previous checkpoint intact.
	PutCheckpoint(cp Checkpoint) error
	// LastCheckpoint returns the newest intact checkpoint, with ok=false
	// when none has been written.
	LastCheckpoint() (cp Checkpoint, ok bool, err error)
	// Sync flushes buffered state to stable storage (no-op for Mem).
	Sync() error
	// Close releases the store. A closed store rejects further writes.
	Close() error
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")
