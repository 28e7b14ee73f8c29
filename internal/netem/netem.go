// Package netem is a deterministic network-emulation layer for the PEM
// transports: it wraps any transport.Conn with per-link latency, jitter,
// bandwidth and loss models so the round-trip-bound protocols can be priced
// on a LAN, a metro utility network, a cross-region WAN or a cellular
// uplink — without a single wall-clock sleep.
//
// # The virtual clock
//
// Emulated time is message-driven, and a window's state rides its context:
// Network.OpenWindow attaches the window's message streams and delivery
// maxima (read back by EndWindow), and WithClock one party's clock at zero;
// the engine opens the window once and attaches a clock per party. Traffic
// under a context without a window passes through unmodeled. Sending a
// message timestamps it with the sender's clock plus the link's delay
// (propagation + seeded jitter + serialization + seeded retransmissions);
// receiving one advances the receiver's clock to the message's delivery
// time if it is later (a Lamport-style max). A context without a clock
// sends from zero and advances nothing. A parallel hop counter measures the
// protocol's round structure: each message carries its sender's dependency
// depth plus one. A window's virtual latency and round count are the latest
// delivery and the deepest chain among its messages — the critical path an
// identical deployment would wait out on a real network — while the
// messages themselves still deliver at memory speed.
//
// Determinism is unconditional: all jitter and loss realizations are drawn
// by hashing the network seed with the message identity (link, tag,
// per-link sequence number) rather than from a shared stream, and windows
// share no state. Seeded runs therefore report bit-identical virtual
// latency and round counts at any window, coalition or crypto-worker
// concurrency, and with any real-time arrival order.
//
// Concurrent sub-exchanges inside one window (Protocol 4's pairwise
// route-and-pay) would race one clock, so Branch clones the context's
// clock per concurrent exchange, and each reply is timestamped only
// against the messages its own exchange received.
package netem

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/pem-go/pem/internal/transport"
)

// Network is one engine's emulated network: a preset and the seed of its
// draws, shared by the engine's wrapped connections. Each window's state
// lives in the window's context (OpenWindow), never here.
type Network struct {
	preset preset
	seed   int64
}

// windowKey keys the emulation state a window's context carries.
type windowKey struct{}

// window is one window's emulation state: its message streams, and the
// latest delivery and deepest chain among their received messages — the
// window's critical-path latency and round count.
type window struct {
	mu      sync.Mutex
	links   map[linkKey]*link
	latency time.Duration
	rounds  int
}

// linkKey names one directed message stream: all messages from one party to
// another under one tag. Streams are the FIFO unit (matching the mailbox's
// per-(from, tag) queues) and the unit of the seeded delay draws.
type linkKey struct {
	from, to, tag string
}

// link carries one stream's state: the send sequence counter feeding the
// seeded draws, the link-occupancy and FIFO floors, and the queue of
// in-flight delivery metadata the receiver consumes. Each stream has its
// own lock so pricing a message on one link never serializes the others.
type link struct {
	mu sync.Mutex
	// seq numbers this stream's transmissions; it feeds the seeded draws.
	seq int64
	// freeAt is when the link finishes serializing the previous message:
	// back-to-back sends queue behind each other's transmission time, like
	// frames on a real interface.
	freeAt time.Duration
	// lastD keeps deliveries FIFO even when jitter would reorder them,
	// matching the mailbox's per-(from, tag) queue semantics.
	lastD time.Duration
	fifo  []meta
}

// meta is the emulation metadata of one in-flight message.
type meta struct {
	d     time.Duration // virtual delivery time
	depth int           // dependency-chain length including this hop
}

// New builds a network over the named preset, refusing an unknown name. The
// seed drives every jitter, loss and per-pair-spread draw.
func New(name string, seed int64) (*Network, error) {
	p, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("netem: unknown topology %q (have %v)", name, Presets())
	}
	return &Network{preset: p, seed: seed}, nil
}

// Wrap layers the emulation over one party's endpoint. All endpoints of one
// protocol instance must be wrapped by the same Network, and a window's
// parties must run under the context its OpenWindow returned, since
// delivery metadata travels through that window's state from sender to
// receiver.
func (n *Network) Wrap(c transport.Conn) *Conn {
	return &Conn{net: n, inner: c}
}

// OpenWindow returns a context carrying one window's fresh emulation
// state: every party's sends and receives in the window go through it, so
// the window's streams start empty and its state goes with the context.
func (n *Network) OpenWindow(ctx context.Context) context.Context {
	return context.WithValue(ctx, windowKey{}, &window{links: make(map[linkKey]*link)})
}

// EndWindow returns the critical-path virtual latency and round count of
// the window ctx carries: the maxima across its deliveries, zero for a
// context without a window.
func EndWindow(ctx context.Context) (latency time.Duration, rounds int) {
	ws, ok := ctx.Value(windowKey{}).(*window)
	if !ok {
		return 0, 0
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.latency, ws.rounds
}

// observe folds one delivery into the window's maxima.
func (ws *window) observe(m meta) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.latency = max(ws.latency, m.d)
	ws.rounds = max(ws.rounds, m.depth)
}

// price splits one transmission's cost on the pair's link into occupancy
// (serialization against the bandwidth plus one RTO per seeded loss — the
// time the stream is busy with this message, which back-to-back sends
// queue behind) and pipelined delay (propagation plus seeded jitter, which
// consecutive messages overlap).
func (n *Network) price(from, to, tag string, seq int64, size int) (occupancy, pipelined time.Duration) {
	p := n.preset.pair(n.seed, from, to)
	if p.bandwidth > 0 {
		occupancy = time.Duration(int64(size) * int64(time.Second) / p.bandwidth)
	}
	for attempt := int64(0); attempt < maxRetransmits; attempt++ {
		if p.loss == 0 || unitFloat(hashDraw(n.seed, "loss", from, to, tag, seq, attempt)) >= p.loss {
			break
		}
		occupancy += p.rto()
	}
	pipelined = p.latency
	if p.jitter > 0 {
		u := unitFloat(hashDraw(n.seed, "jitter", from, to, tag, seq, 0))
		pipelined += time.Duration((u*2 - 1) * float64(p.jitter))
	}
	if pipelined < 0 {
		pipelined = 0
	}
	return occupancy, pipelined
}

// Conn wraps one party's endpoint with the network emulation. Traffic
// under a context without a window (see OpenWindow) passes through
// unmodeled; a window's traffic is priced and tracked in its streams. A
// message is timestamped from the sender's context's clock, and its
// delivery advances the receiver's context's clock (see WithClock); a
// context without a clock sends from zero, and its receives still count
// toward the window's latency and rounds.
type Conn struct {
	net   *Network
	inner transport.Conn
}

var _ transport.Conn = (*Conn)(nil)

// Inner returns the wrapped endpoint, so transport.SendNeverBlocks can
// unwrap conn stacks down to the transport.
func (c *Conn) Inner() transport.Conn { return c.inner }

// Party implements transport.Conn.
func (c *Conn) Party() string { return c.inner.Party() }

// Send implements transport.Conn: it timestamps the message off the
// context's virtual clock, prices the link delay from the seeded model,
// enqueues the delivery metadata for the receiver and forwards the payload
// unchanged.
func (c *Conn) Send(ctx context.Context, to, tag string, payload []byte) error {
	ws, ok := ctx.Value(windowKey{}).(*window)
	if !ok {
		return c.inner.Send(ctx, to, tag, payload)
	}
	from := c.inner.Party()

	var t0 time.Duration
	var depth int
	if ck, ok := ctx.Value(clockKey{}).(*clock); ok {
		t0, depth = ck.snapshot()
	}

	// The stream lock is held across both the metadata enqueue and the
	// inner send, so the FIFO of metas stays aligned with the mailbox's
	// message queue even under concurrent senders.
	st := ws.stream(linkKey{from: from, to: to, tag: tag})
	st.mu.Lock()
	defer st.mu.Unlock()
	seq := st.seq
	st.seq++
	occ, pipe := c.net.price(from, to, tag, seq, transport.WireSize(from, to, tag, payload))
	start := t0
	if start < st.freeAt {
		start = st.freeAt
	}
	st.freeAt = start + occ
	d := st.freeAt + pipe
	if d < st.lastD {
		d = st.lastD
	}
	st.lastD = d
	st.fifo = append(st.fifo, meta{d: d, depth: depth + 1})
	if err := c.inner.Send(ctx, to, tag, payload); err != nil {
		// The message never entered the mailbox; retract its metadata so
		// the FIFO stays aligned. The sequence number stays burned, which
		// is fine: draws only need to be unique, not dense.
		st.fifo = st.fifo[:len(st.fifo)-1]
		return err
	}
	return nil
}

// Recv implements transport.Conn: it forwards the blocking receive, then
// folds the message's delivery time and hop depth into the context's clock
// and the window's maxima.
func (c *Conn) Recv(ctx context.Context, from, tag string) ([]byte, error) {
	payload, err := c.inner.Recv(ctx, from, tag)
	if err != nil {
		return nil, err
	}
	c.arrived(ctx, from, tag)
	return payload, nil
}

// RecvAny implements transport.Conn, with the same clock accounting as
// Recv applied to whichever sender's message arrived.
func (c *Conn) RecvAny(ctx context.Context, tag string, froms []string) (string, []byte, error) {
	from, payload, err := c.inner.RecvAny(ctx, tag, froms)
	if err != nil {
		return "", nil, err
	}
	c.arrived(ctx, from, tag)
	return from, payload, nil
}

// Close implements transport.Conn.
func (c *Conn) Close() error { return c.inner.Close() }

// arrived pops the oldest in-flight metadata of the (from, self, tag)
// stream and advances the context's clock and the window's maxima.
// Messages without metadata (sent by an unwrapped endpoint, or under a
// context without a window) leave both untouched.
func (c *Conn) arrived(ctx context.Context, from, tag string) {
	ws, ok := ctx.Value(windowKey{}).(*window)
	if !ok {
		return
	}
	st := ws.stream(linkKey{from: from, to: c.inner.Party(), tag: tag})
	st.mu.Lock()
	if len(st.fifo) == 0 {
		st.mu.Unlock()
		return
	}
	m := st.fifo[0]
	st.fifo = st.fifo[1:]
	st.mu.Unlock()

	ws.observe(m)
	if ck, ok := ctx.Value(clockKey{}).(*clock); ok {
		ck.advance(m)
	}
}

// stream returns (lazily creating) one directed stream's state.
func (ws *window) stream(k linkKey) *link {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	st := ws.links[k]
	if st == nil {
		st = &link{}
		ws.links[k] = st
	}
	return st
}

// hashDraw derives one deterministic 64-bit draw from the seed and a
// message identity. Draws are pure functions of their inputs — no shared
// stream, no ordering sensitivity — and run on the Send hot path, so the
// hash is an allocation-free FNV-1a (the dataset's seed-derivation
// convention) with a splitmix64 finalizer to spread FNV's weak avalanche
// across the high bits unitFloat consumes. Statistical quality, not
// cryptographic strength, is all the delay model needs.
func hashDraw(seed int64, domain, from, to, tag string, seq, attempt int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixInt := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		h = (h ^ 0xff) * prime64 // separator: "ab","c" != "a","bc"
	}
	mixInt(uint64(seed))
	mixStr(domain)
	mixStr(from)
	mixStr(to)
	mixStr(tag)
	mixInt(uint64(seq))
	mixInt(uint64(attempt))

	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// unitFloat maps a 64-bit draw onto [0, 1) with 53-bit precision.
func unitFloat(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

// clockKey keys the virtual clock a context carries.
type clockKey struct{}

// clock is one party's virtual time in one window, or in one concurrent
// exchange of it after Branch: the latest delivery it has observed and the
// longest message dependency chain ending there.
type clock struct {
	mu    sync.Mutex
	t     time.Duration
	depth int
}

func (ck *clock) snapshot() (time.Duration, int) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.t, ck.depth
}

func (ck *clock) advance(m meta) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.t = max(ck.t, m.d)
	ck.depth = max(ck.depth, m.depth)
}

// WithClock returns a context carrying a fresh virtual clock at zero: one
// party's time in one window. Sends through it are timestamped from the
// clock and receives through it advance the clock.
func WithClock(ctx context.Context) context.Context {
	return context.WithValue(ctx, clockKey{}, &clock{})
}

// Branch clones the context's virtual clock at its current value, giving
// one concurrent exchange its own isolated line. Contexts without a clock
// pass through unchanged (emulation disabled).
func Branch(ctx context.Context) context.Context {
	ck, ok := ctx.Value(clockKey{}).(*clock)
	if !ok {
		return ctx
	}
	t, depth := ck.snapshot()
	return context.WithValue(ctx, clockKey{}, &clock{t: t, depth: depth})
}
