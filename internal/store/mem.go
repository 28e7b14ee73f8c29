package store

import (
	"sort"
	"sync"

	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
)

// Mem is the in-memory Store: the default when no durability is requested,
// and the reference implementation the conformance suite holds the WAL to.
// It retains everything written to it, so unlike the WAL it is not
// memory-bounded over an unbounded run — it trades durability for zero
// I/O, exactly like a batch Run trades memory for auditability.
type Mem struct {
	mu         sync.Mutex
	closed     bool
	blocks     map[string][]ledger.Block
	aggregates map[string]Aggregate
	positions  map[string]market.AgentPosition
	keys       map[string]KeyRecord // keyed by scope+"\x00"+party
	checkpoint *Checkpoint
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		blocks:     make(map[string][]ledger.Block),
		aggregates: make(map[string]Aggregate),
		positions:  make(map[string]market.AgentPosition),
		keys:       make(map[string]KeyRecord),
	}
}

// AppendBlock implements Store. A genesis block resets the scope's chain.
func (m *Mem) AppendBlock(scope string, blk ledger.Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if blk.Index == 0 {
		m.blocks[scope] = nil
	}
	m.blocks[scope] = append(m.blocks[scope], blk)
	return nil
}

// Blocks implements Store.
func (m *Mem) Blocks(scope string) ([]ledger.Block, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	return append([]ledger.Block(nil), m.blocks[scope]...), nil
}

// Scopes implements Store.
func (m *Mem) Scopes() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	out := make([]string, 0, len(m.blocks))
	for s := range m.blocks {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// PutAggregate implements Store (latest-wins per scope).
func (m *Mem) PutAggregate(agg Aggregate) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.aggregates[agg.Scope] = agg
	return nil
}

// Aggregates implements Store.
func (m *Mem) Aggregates() ([]Aggregate, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	out := make([]Aggregate, 0, len(m.aggregates))
	for _, a := range m.aggregates {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scope < out[j].Scope })
	return out, nil
}

// UpsertPositions implements Store (latest-wins per agent ID).
func (m *Mem) UpsertPositions(positions []market.AgentPosition) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, p := range positions {
		m.positions[p.ID] = p
	}
	return nil
}

// Positions implements Store.
func (m *Mem) Positions() ([]market.AgentPosition, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	out := make([]market.AgentPosition, 0, len(m.positions))
	for _, p := range m.positions {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// PutKeyMaterial implements Store (latest-wins per (scope, party)).
func (m *Mem) PutKeyMaterial(rec KeyRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.keys[rec.Scope+"\x00"+rec.Party] = rec
	return nil
}

// KeyMaterial implements Store.
func (m *Mem) KeyMaterial() ([]KeyRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	out := make([]KeyRecord, 0, len(m.keys))
	for _, k := range m.keys {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return out[i].Party < out[j].Party
	})
	return out, nil
}

// PutCheckpoint implements Store.
func (m *Mem) PutCheckpoint(cp Checkpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	c := cp
	m.checkpoint = &c
	return nil
}

// LastCheckpoint implements Store.
func (m *Mem) LastCheckpoint() (Checkpoint, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Checkpoint{}, false, ErrClosed
	}
	if m.checkpoint == nil {
		return Checkpoint{}, false, nil
	}
	return *m.checkpoint, true, nil
}

// Sync implements Store (no-op: memory is as stable as it gets).
func (m *Mem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
