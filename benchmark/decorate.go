package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/transport"
)

// The two interfaces the library already accepts from its callers —
// transport.Conn (Party.ReplaceConn) and pem.Store — are the only places
// the benchmark sits between layers. Both decorators forward every call
// unchanged, so a traced run's outputs stay bit-identical to an untraced
// one's (the exact-repeat guard checks that).

// windowScope is the span and window number the timing conns attribute
// their calls to. The closed loop runs one window at a time, so one shared
// value set before each window is enough.
type windowScope struct {
	span   atomic.Int64
	window atomic.Int64
	// spans turns per-message spans on. A day moves millions of messages;
	// the counters below always run, the spans only for a few windows.
	spans atomic.Bool
}

// begin opens a transport span under the current window, if spans are on.
func (ws *windowScope) begin(tr *tracer, name string) int {
	if !ws.spans.Load() {
		return 0
	}
	return tr.begin(int(ws.span.Load()), "transport", name, int(ws.window.Load()))
}

// timedConn times one party's Send calls and the time it spends blocked in
// Recv/RecvAny. A party may have several receives pending at once (its
// collectors run on their own goroutines), so blocked time is the union of
// the pending intervals — the time the party had at least one receive
// outstanding — not their sum.
type timedConn struct {
	inner transport.Conn
	tr    *tracer
	scope *windowScope

	sendNs, msgs atomic.Int64
	// lastNs is when the party's latest transport call returned (UnixNano):
	// a party is counted active in a window only up to there, not while it
	// idles after finishing its part.
	lastNs atomic.Int64

	mu        sync.Mutex
	pending   int
	blockedAt time.Time
	blockedNs int64
}

// recvBegin and recvEnd bracket one receive for the blocked-time union.
func (c *timedConn) recvBegin() {
	c.mu.Lock()
	if c.pending == 0 {
		c.blockedAt = time.Now()
	}
	c.pending++
	c.mu.Unlock()
}

func (c *timedConn) recvEnd() {
	c.mu.Lock()
	now := time.Now()
	c.pending--
	if c.pending == 0 {
		c.blockedNs += now.Sub(c.blockedAt).Nanoseconds()
	}
	c.mu.Unlock()
	c.lastNs.Store(now.UnixNano())
}

// takeBlocked returns and resets the blocked time accumulated so far.
func (c *timedConn) takeBlocked() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := time.Duration(c.blockedNs)
	c.blockedNs = 0
	return d
}

var _ transport.Conn = (*timedConn)(nil)

// Inner lets transport.SendNeverBlocks see the in-memory bus through the
// decorator, keeping the engine on the same broadcast path as untraced.
func (c *timedConn) Inner() transport.Conn { return c.inner }

func (c *timedConn) Party() string { return c.inner.Party() }

func (c *timedConn) Close() error { return c.inner.Close() }

func (c *timedConn) Send(ctx context.Context, to, tag string, payload []byte) error {
	id := c.scope.begin(c.tr, "send")
	t := time.Now()
	err := c.inner.Send(ctx, to, tag, payload)
	now := time.Now()
	c.sendNs.Add(now.Sub(t).Nanoseconds())
	c.lastNs.Store(now.UnixNano())
	c.msgs.Add(1)
	c.tr.end(id)
	return err
}

func (c *timedConn) Recv(ctx context.Context, from, tag string) ([]byte, error) {
	id := c.scope.begin(c.tr, "recv")
	c.recvBegin()
	p, err := c.inner.Recv(ctx, from, tag)
	c.recvEnd()
	c.tr.end(id)
	return p, err
}

func (c *timedConn) RecvAny(ctx context.Context, tag string, froms []string) (string, []byte, error) {
	id := c.scope.begin(c.tr, "recv_any")
	c.recvBegin()
	from, p, err := c.inner.RecvAny(ctx, tag, froms)
	c.recvEnd()
	c.tr.end(id)
	return from, p, err
}

// timedStore times every pem.Store method. Durations are kept per call so
// the report can give medians per method.
type timedStore struct {
	inner pem.Store
	tr    *tracer
	// parent is the span store calls nest under (the current epoch).
	parent atomic.Int64

	mu    sync.Mutex
	calls map[string][]time.Duration
}

var _ pem.Store = (*timedStore)(nil)

func newTimedStore(inner pem.Store, tr *tracer) *timedStore {
	return &timedStore{inner: inner, tr: tr, calls: make(map[string][]time.Duration)}
}

// timed opens a span for one store call; the returned func closes it and
// records the duration.
func (s *timedStore) timed(method string) func() {
	id := s.tr.begin(int(s.parent.Load()), "store", method, -1)
	t := time.Now()
	return func() {
		d := time.Since(t)
		s.tr.end(id)
		s.mu.Lock()
		s.calls[method] = append(s.calls[method], d)
		s.mu.Unlock()
	}
}

// durations returns the recorded call durations of the listed methods in
// the unit conv produces.
func (s *timedStore) durations(conv func(time.Duration) float64, methods ...string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, m := range methods {
		for _, d := range s.calls[m] {
			out = append(out, conv(d))
		}
	}
	return out
}

// callCounts returns the number of calls per method.
func (s *timedStore) callCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.calls))
	for m, ds := range s.calls {
		out[m] = len(ds)
	}
	return out
}

func (s *timedStore) AppendBlock(scope string, blk ledger.Block) error {
	defer s.timed("AppendBlock")()
	return s.inner.AppendBlock(scope, blk)
}

func (s *timedStore) Blocks(scope string) ([]ledger.Block, error) {
	defer s.timed("Blocks")()
	return s.inner.Blocks(scope)
}

func (s *timedStore) Scopes() ([]string, error) {
	defer s.timed("Scopes")()
	return s.inner.Scopes()
}

func (s *timedStore) PutAggregate(agg pem.StoreAggregate) error {
	defer s.timed("PutAggregate")()
	return s.inner.PutAggregate(agg)
}

func (s *timedStore) Aggregates() ([]pem.StoreAggregate, error) {
	defer s.timed("Aggregates")()
	return s.inner.Aggregates()
}

func (s *timedStore) UpsertPositions(positions []market.AgentPosition) error {
	defer s.timed("UpsertPositions")()
	return s.inner.UpsertPositions(positions)
}

func (s *timedStore) Positions() ([]market.AgentPosition, error) {
	defer s.timed("Positions")()
	return s.inner.Positions()
}

func (s *timedStore) PutKeyMaterial(rec pem.KeyRecord) error {
	defer s.timed("PutKeyMaterial")()
	return s.inner.PutKeyMaterial(rec)
}

func (s *timedStore) KeyMaterial() ([]pem.KeyRecord, error) {
	defer s.timed("KeyMaterial")()
	return s.inner.KeyMaterial()
}

func (s *timedStore) PutCheckpoint(cp pem.Checkpoint) error {
	defer s.timed("PutCheckpoint")()
	return s.inner.PutCheckpoint(cp)
}

func (s *timedStore) LastCheckpoint() (pem.Checkpoint, bool, error) {
	defer s.timed("LastCheckpoint")()
	return s.inner.LastCheckpoint()
}

func (s *timedStore) Sync() error {
	defer s.timed("Sync")()
	return s.inner.Sync()
}

func (s *timedStore) Close() error {
	defer s.timed("Close")()
	return s.inner.Close()
}
