// Package ledger provides a hash-chained, append-only transaction ledger
// for PEM trades, realizing the paper's "Blockchain Deployment" discussion
// (Section VI): the final distribution and payment between sellers and
// buyers is committed to a tamper-evident log so integrity and truthfulness
// of completed transactions can be audited after the fact.
//
// The ledger is deliberately lightweight — a linear chain of blocks, each
// holding the trades of one trading window, linked by SHA-256 — matching
// the role a permissioned chain (e.g. one Fabric channel) would play for a
// neighborhood market. Consensus is out of scope: PEM's trust model already
// has all agents observing the same protocol transcript.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/pem-go/pem/internal/market"
)

// TradeRecord is one pairwise transaction committed to the chain.
type TradeRecord struct {
	// Seller is the delivering agent's ID.
	Seller string
	// Buyer is the receiving agent's ID.
	Buyer string
	// EnergyKWh routed from Seller to Buyer.
	EnergyKWh float64
	// PaymentCents paid by Buyer to Seller.
	PaymentCents float64
}

// RecordsFromTrades converts one window's market trades into ledger
// records — the single mapping shared by the solo-market ledger and the
// grid settlement paths, so the two chains can never drift apart on field
// semantics.
func RecordsFromTrades(trades []market.Trade) []TradeRecord {
	records := make([]TradeRecord, len(trades))
	for i, tr := range trades {
		records[i] = TradeRecord{
			Seller:       tr.Seller,
			Buyer:        tr.Buyer,
			EnergyKWh:    tr.Energy,
			PaymentCents: tr.Payment,
		}
	}
	return records
}

// Block holds all trades of one trading window.
type Block struct {
	// Index is the block height (0 = genesis).
	Index int
	// Window is the trading-window number the trades belong to.
	Window int
	// PriceCentsPerKWh is the clearing price of the window.
	PriceCentsPerKWh float64
	// Trades in deterministic order.
	Trades []TradeRecord
	// PrevHash links to the previous block.
	PrevHash [32]byte
	// Hash commits to all the fields above.
	Hash [32]byte
}

// Errors returned by the package.
var (
	ErrCorrupted = errors.New("ledger: chain verification failed")
	ErrBadValue  = errors.New("ledger: non-finite trade value")
)

// Ledger is a thread-safe hash chain.
type Ledger struct {
	mu     sync.RWMutex
	blocks []Block
}

// New creates a ledger with a genesis block.
func New() *Ledger {
	l := &Ledger{}
	genesis := Block{Index: 0, Window: -1}
	genesis.Hash = genesis.computeHash()
	l.blocks = []Block{genesis}
	return l
}

// computeHash hashes the block contents (excluding Hash itself).
func (b *Block) computeHash() [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(b.Index))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(int64(b.Window)))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(b.PriceCentsPerKWh))
	h.Write(buf[:])
	for _, t := range b.Trades {
		h.Write([]byte(t.Seller))
		h.Write([]byte{0})
		h.Write([]byte(t.Buyer))
		h.Write([]byte{0})
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(t.EnergyKWh))
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(t.PaymentCents))
		h.Write(buf[:])
	}
	h.Write(b.PrevHash[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Append commits the trades of one window as a new block and returns it.
func (l *Ledger) Append(window int, price float64, trades []TradeRecord) (Block, error) {
	for _, t := range trades {
		if math.IsNaN(t.EnergyKWh) || math.IsInf(t.EnergyKWh, 0) ||
			math.IsNaN(t.PaymentCents) || math.IsInf(t.PaymentCents, 0) {
			return Block{}, ErrBadValue
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := l.blocks[len(l.blocks)-1]
	blk := Block{
		Index:            prev.Index + 1,
		Window:           window,
		PriceCentsPerKWh: price,
		Trades:           append([]TradeRecord(nil), trades...),
		PrevHash:         prev.Hash,
	}
	blk.Hash = blk.computeHash()
	l.blocks = append(l.blocks, blk)
	return blk, nil
}

// FromBlocks reconstructs a ledger from a persisted chain — genesis first,
// in append order — verifying every hash and link before accepting it, so
// a store-recovered chain is exactly as trustworthy as a live one. Returns
// ErrCorrupted (wrapped) when the chain does not verify.
func FromBlocks(blocks []Block) (*Ledger, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%w: empty chain", ErrCorrupted)
	}
	l := &Ledger{blocks: append([]Block(nil), blocks...)}
	if err := l.Verify(); err != nil {
		return nil, err
	}
	return l, nil
}

// Len returns the chain height including genesis.
func (l *Ledger) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.blocks)
}

// Block returns the block at the given height.
func (l *Ledger) Block(i int) (Block, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= len(l.blocks) {
		return Block{}, fmt.Errorf("ledger: block %d out of range [0,%d)", i, len(l.blocks))
	}
	return l.blocks[i], nil
}

// Head returns the latest block.
func (l *Ledger) Head() Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.blocks[len(l.blocks)-1]
}

// Verify walks the chain, recomputing hashes and links. It returns
// ErrCorrupted (wrapped with the offending height) on any mismatch.
func (l *Ledger) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i, b := range l.blocks {
		if b.Index != i {
			return fmt.Errorf("%w: block %d has index %d", ErrCorrupted, i, b.Index)
		}
		if b.computeHash() != b.Hash {
			return fmt.Errorf("%w: block %d hash mismatch", ErrCorrupted, i)
		}
		if i > 0 && b.PrevHash != l.blocks[i-1].Hash {
			return fmt.Errorf("%w: block %d prev-link broken", ErrCorrupted, i)
		}
	}
	return nil
}

// TamperForTest mutates a block in place so tests can exercise Verify.
// It must never be used outside tests.
func (l *Ledger) TamperForTest(i int, mutate func(*Block)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.blocks) {
		return fmt.Errorf("ledger: block %d out of range", i)
	}
	mutate(&l.blocks[i])
	return nil
}

// HashString renders a block hash for logs.
func HashString(h [32]byte) string { return hex.EncodeToString(h[:8]) }
