package transport

import (
	"context"
	"fmt"
	"sync"
)

// Bus is an in-memory transport connecting any number of parties within one
// process. It models the paper's deployment (one container per agent on a
// shared host) without the serialization cost of real sockets, while still
// accounting for the exact number of bytes each party would have sent.
type Bus struct {
	mu      sync.RWMutex
	parties map[string]*memConn
	metrics *Metrics
}

// NewBus creates an empty bus. If metrics is nil, a fresh sink is created.
func NewBus(metrics *Metrics) *Bus {
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &Bus{
		parties: make(map[string]*memConn),
		metrics: metrics,
	}
}

// Metrics returns the byte-accounting sink shared by all endpoints.
func (b *Bus) Metrics() *Metrics { return b.metrics }

// Register creates the endpoint for a party. Registering the same party
// twice is an error.
func (b *Bus) Register(party string) (Conn, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.parties[party]; dup {
		return nil, fmt.Errorf("transport: party %q already registered", party)
	}
	c := &memConn{bus: b, party: party, mbox: newMailbox()}
	b.parties[party] = c
	return c, nil
}

// MustRegister is Register for test and example setup code; it panics on
// duplicate registration.
func (b *Bus) MustRegister(party string) Conn {
	c, err := b.Register(party)
	if err != nil {
		panic(err)
	}
	return c
}

func (b *Bus) lookup(party string) (*memConn, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c, ok := b.parties[party]
	return c, ok
}

func (b *Bus) remove(party string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.parties, party)
}

type memConn struct {
	bus   *Bus
	party string
	mbox  *mailbox

	closeOnce sync.Once
}

var _ Conn = (*memConn)(nil)

// sendNeverBlocks marks the in-memory endpoint for SendNeverBlocks: a bus
// Send is a mailbox push under a briefly-held mutex, never a wait on the
// receiver.
func (c *memConn) sendNeverBlocks() {}

func (c *memConn) Party() string { return c.party }

func (c *memConn) Send(ctx context.Context, to, tag string, payload []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dst, ok := c.bus.lookup(to)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownParty, to)
	}
	// Copy the payload into a pooled frame: senders are free to reuse their
	// buffers the moment Send returns, and the receiver takes ownership of
	// the pooled copy (it may PutFrame it after decoding — see Conn).
	buf := GetFrame(len(payload))
	copy(buf, payload)
	msg := Message{From: c.party, To: to, Tag: tag, Payload: buf}
	if err := dst.mbox.push(msg); err != nil {
		return fmt.Errorf("transport: send to %q: %w", to, err)
	}
	c.bus.metrics.recordSend(tag, msg.wireSize())
	return nil
}

func (c *memConn) Recv(ctx context.Context, from, tag string) ([]byte, error) {
	return c.mbox.pop(ctx, from, tag)
}

func (c *memConn) RecvAny(ctx context.Context, tag string, froms []string) (string, []byte, error) {
	return c.mbox.popAny(ctx, tag, froms)
}

func (c *memConn) Close() error {
	c.closeOnce.Do(func() {
		c.mbox.close()
		c.bus.remove(c.party)
	})
	return nil
}
