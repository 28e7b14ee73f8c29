package pem

import (
	"fmt"

	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/store"
)

// This file is the public face of the durability layer: a pluggable Store
// the market and grid stacks write their committed artifacts through —
// ledger blocks, settlement aggregates, key-material fingerprints, agent
// positions and live-grid epoch checkpoints. A nil Store keeps a run purely
// in memory; the library's Store is an append-only, CRC-checked write-ahead
// log whose replay-on-open recovery survives crashes and torn writes. See
// DESIGN.md §12 for the record format and resume semantics.

// Re-exported durability model types.
type (
	// Store is the persistence interface the stack writes through. All
	// methods are safe for concurrent use; writes are durable in order.
	Store = store.Store
	// StoreAggregate is one coalition-day's persisted settlement fold.
	StoreAggregate = store.Aggregate
	// KeyRecord fingerprints one party's per-(epoch, coalition) key
	// material — the SHA-256 of its Paillier public modulus, never the key.
	KeyRecord = store.KeyRecord
	// ChainHead pairs a coalition scope with its ledger head hash inside a
	// Checkpoint.
	ChainHead = store.ChainHead
	// Checkpoint is a live-grid resume point, written after each completed
	// epoch; Resume restarts a simulation from the newest one.
	Checkpoint = store.Checkpoint
	// WALStore is the file-backed Store: an append-only, CRC-checked
	// write-ahead log with torn-tail recovery. Open one with OpenWAL.
	WALStore = store.WAL
	// WALRecovery describes what a WAL replay recovered and dropped.
	WALRecovery = store.RecoveryInfo
	// Block is one hash-chained settlement ledger block, as persisted per
	// scope by a Store and returned by Store.Blocks.
	Block = ledger.Block
)

// Durability errors.
var (
	// ErrStoreClosed is returned by operations on a closed store.
	ErrStoreClosed = store.ErrClosed
	// ErrNotWAL is returned by OpenWAL for a file that is not a PEM WAL.
	ErrNotWAL = store.ErrNotWAL
	// ErrStoreCorrupt is returned when a persisted record decodes but its
	// contents are not usable (e.g. an undecodable checkpoint payload).
	ErrStoreCorrupt = store.ErrCorrupt
)

// LedgerFromBlocks rebuilds a settlement ledger from blocks persisted by a
// Store, re-verifying the whole hash chain — the audit path for durable
// runs: read Store.Blocks for a scope, rebuild, and every link is checked.
func LedgerFromBlocks(blocks []Block) (*Ledger, error) {
	l, err := ledger.FromBlocks(blocks)
	if err != nil {
		return nil, fmt.Errorf("pem: %w", err)
	}
	return l, nil
}

// OpenWAL opens (or creates) the append-only file store at path, replaying
// the log to recover its state. A torn tail — a crash mid-write — is
// truncated back to the longest valid prefix; Recovered on the returned
// store reports what was dropped. A file that is not a PEM WAL fails with
// ErrNotWAL rather than being overwritten.
func OpenWAL(path string) (*WALStore, error) {
	w, err := store.OpenWAL(path)
	if err != nil {
		return nil, fmt.Errorf("pem: %w", err)
	}
	return w, nil
}
