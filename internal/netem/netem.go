// Package netem is a deterministic network-emulation layer for the PEM
// transports: it wraps any transport.Conn with per-link latency, jitter,
// bandwidth and loss models so the round-trip-bound protocols can be priced
// on a LAN, a metro utility network, a cross-region WAN or a cellular
// uplink — without a single wall-clock sleep.
//
// # The virtual clock
//
// Emulated time is message-driven. Every (scope, window, party) triple owns
// a virtual-clock lane starting at zero when its trading window begins.
// Sending a message timestamps it with the sender's lane clock plus the
// link's delay (propagation + seeded jitter + serialization + seeded
// retransmissions); receiving one advances the receiver's lane clock to the
// message's delivery time if it is later (a Lamport-style max). The lane
// maxima trace exactly the longest chain of message dependencies through
// the window — the critical path an identical deployment would wait out on
// a real network — while the messages themselves still deliver at memory
// speed. A parallel hop counter measures the protocol's round structure:
// each message carries its sender's dependency depth plus one, and the
// window's round count is the deepest chain any party observed.
//
// Determinism is unconditional: all jitter and loss realizations are drawn
// by hashing the network seed with the message identity (link, tag,
// per-link sequence number) rather than from a shared stream, and lanes of
// different windows share no state. Seeded runs therefore report
// bit-identical virtual latency and round counts at any window, coalition
// or crypto-worker concurrency, and with any real-time arrival order.
//
// Concurrent sub-exchanges inside one window (Protocol 4's pairwise
// route-and-pay) would race a single per-party lane, so senders there fork
// the lane into per-goroutine branches: Conn.ForkLane snapshots the lane
// under the caller's control-flow, Branch clones the snapshot per
// concurrent exchange, and replies are timestamped only against the
// messages their own exchange actually received.
package netem

import (
	"context"
	"sync"
	"time"

	"github.com/pem-go/pem/internal/transport"
)

// Network holds the emulated topology and all virtual-clock state shared by
// the wrapped connections of one engine. A window's virtual latency and
// round count are read from it (WindowStats) while the window's lanes live.
type Network struct {
	topo Topology
	seed int64

	mu    sync.Mutex
	lanes map[laneKey]*lane
	links map[linkKey]*link
	pairs map[pairKey]LinkParams
}

// laneKey names one party's virtual-clock lane within one trading window.
type laneKey struct {
	scope  string
	window int
	party  string
}

// lane is the per-(scope, window, party) virtual clock: the latest message
// delivery this party has observed in the window, and the longest message
// dependency chain ending at it.
type lane struct {
	clock time.Duration
	depth int
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

// pairKey memoizes resolved per-pair link parameters.
type pairKey struct {
	from, to string
}

// meta is the emulation metadata of one in-flight message.
type meta struct {
	d     time.Duration // virtual delivery time
	depth int           // dependency-chain length including this hop
}

// New builds a network over the given topology. The seed drives every
// jitter, loss and per-pair-spread draw.
func New(topo Topology, seed int64) (*Network, error) {
	if err := topo.validate(); err != nil {
		return nil, err
	}
	return &Network{
		topo:  topo,
		seed:  seed,
		lanes: make(map[laneKey]*lane),
		links: make(map[linkKey]*link),
		pairs: make(map[pairKey]LinkParams),
	}, nil
}

// Topology returns the emulated topology.
func (n *Network) Topology() Topology { return n.topo }

// Wrap layers the emulation over one party's endpoint. All endpoints of one
// protocol instance must be wrapped by the same Network, since delivery
// metadata travels through it from sender to receiver.
func (n *Network) Wrap(c transport.Conn) *Conn {
	return &Conn{net: n, inner: c}
}

// WindowStats returns one window's critical-path virtual latency and round
// count as observed so far: the maxima across the window's lanes. The scan
// is O(live lanes), which ReleaseWindow keeps bounded by the windows
// actually in flight.
func (n *Network) WindowStats(scope string, window int) (latency time.Duration, rounds int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k, l := range n.lanes {
		if k.scope != scope || k.window != window {
			continue
		}
		if l.clock > latency {
			latency = l.clock
		}
		if l.depth > rounds {
			rounds = l.depth
		}
	}
	return latency, rounds
}

// ReleaseWindow drops one completed window's lane and stream state. The
// engine calls it after reading the window's stats, which keeps a
// long-lived network's memory bounded by the windows in flight — and means
// a caller reusing a window number later starts that window's virtual
// clocks from zero again instead of inheriting the previous run's.
func (n *Network) ReleaseWindow(scope string, window int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k := range n.lanes {
		if k.scope == scope && k.window == window {
			delete(n.lanes, k)
		}
	}
	for k := range n.links {
		if s, w, _, ok := transport.ParseScopedWindowTag(k.tag); ok && s == scope && w == window {
			delete(n.links, k)
		}
	}
}

// pairParams resolves (and memoizes) the directed pair's link parameters.
// New validated the topology, and the spread keeps every pair's link valid.
func (n *Network) pairParams(from, to string) LinkParams {
	k := pairKey{from: from, to: to}
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.pairs[k]
	if !ok {
		p = n.topo.link(n.seed, from, to)
		n.pairs[k] = p
	}
	return p
}

// laneSnapshot reads one lane's current clock and depth.
func (n *Network) laneSnapshot(scope string, window int, party string) (time.Duration, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.lanes[laneKey{scope: scope, window: window, party: party}]
	if !ok {
		return 0, 0
	}
	return l.clock, l.depth
}

// laneAdvance folds one delivery into a lane (Lamport max).
func (n *Network) laneAdvance(scope string, window int, party string, m meta) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := laneKey{scope: scope, window: window, party: party}
	l, ok := n.lanes[k]
	if !ok {
		l = &lane{}
		n.lanes[k] = l
	}
	if m.d > l.clock {
		l.clock = m.d
	}
	if m.depth > l.depth {
		l.depth = m.depth
	}
}

// price splits one transmission's cost into link occupancy (serialization
// against the bandwidth plus one RTO per seeded loss — the time the stream
// is busy with this message, which back-to-back sends queue behind) and
// pipelined delay (propagation plus seeded jitter, which consecutive
// messages overlap).
func (n *Network) price(p LinkParams, from, to, tag string, seq int64, size int) (occupancy, pipelined time.Duration) {
	if p.Bandwidth > 0 {
		occupancy = time.Duration(int64(size) * int64(time.Second) / p.Bandwidth)
	}
	for attempt := int64(0); attempt < maxRetransmits; attempt++ {
		if p.Loss == 0 || unitFloat(hashDraw(n.seed, "loss", from, to, tag, seq, attempt)) >= p.Loss {
			break
		}
		occupancy += p.RTO
	}
	pipelined = p.Latency
	if p.Jitter > 0 {
		u := unitFloat(hashDraw(n.seed, "jitter", from, to, tag, seq, 0))
		pipelined += time.Duration((u*2 - 1) * float64(p.Jitter))
	}
	if pipelined < 0 {
		pipelined = 0
	}
	return occupancy, pipelined
}

// Conn wraps one party's endpoint with the network emulation. Session-
// scoped tags (outside any window namespace) pass through unmodeled; all
// window-tagged protocol traffic is priced and tracked.
type Conn struct {
	net   *Network
	inner transport.Conn
}

var _ transport.Conn = (*Conn)(nil)

// Inner returns the wrapped endpoint, so diagnostics and the virtual-time
// fork helpers can unwrap conn stacks (fault injectors, secure channels)
// down to the emulation layer.
func (c *Conn) Inner() transport.Conn { return c.inner }

// Party implements transport.Conn.
func (c *Conn) Party() string { return c.inner.Party() }

// Send implements transport.Conn: it timestamps the message off the
// sender's virtual clock (or the context's forked branch), prices the link
// delay from the seeded model, enqueues the delivery metadata for the
// receiver and forwards the payload unchanged.
func (c *Conn) Send(ctx context.Context, to, tag string, payload []byte) error {
	scope, window, _, ok := transport.ParseScopedWindowTag(tag)
	if !ok {
		return c.inner.Send(ctx, to, tag, payload)
	}
	from := c.inner.Party()
	params := c.net.pairParams(from, to)

	var t0 time.Duration
	var depth int
	if tk, ok := ctx.Value(tokenKeyType{}).(*token); ok {
		t0, depth = tk.snapshot()
	} else {
		t0, depth = c.net.laneSnapshot(scope, window, from)
	}

	// The stream lock is held across both the metadata enqueue and the
	// inner send, so the FIFO of metas stays aligned with the mailbox's
	// message queue even under concurrent senders.
	st := c.net.stream(linkKey{from: from, to: to, tag: tag})
	st.mu.Lock()
	defer st.mu.Unlock()
	seq := st.seq
	st.seq++
	occ, pipe := c.net.price(params, from, to, tag, seq, transport.WireSize(from, to, tag, payload))
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
// folds the message's delivery time and hop depth into the receiving lane
// (and the context's fork branch, when present).
func (c *Conn) Recv(ctx context.Context, from, tag string) ([]byte, error) {
	payload, err := c.inner.Recv(ctx, from, tag)
	if err != nil {
		return nil, err
	}
	c.arrived(ctx, from, tag)
	return payload, nil
}

// RecvAny implements transport.Conn, with the same lane accounting as Recv
// applied to whichever sender's message arrived.
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
// stream and advances the receiver's lane. Messages without metadata (sent
// by an unwrapped endpoint, or session-scoped) leave the clocks untouched.
func (c *Conn) arrived(ctx context.Context, from, tag string) {
	scope, window, _, ok := transport.ParseScopedWindowTag(tag)
	if !ok {
		return
	}
	to := c.inner.Party()
	st := c.net.stream(linkKey{from: from, to: to, tag: tag})
	st.mu.Lock()
	if len(st.fifo) == 0 {
		st.mu.Unlock()
		return
	}
	m := st.fifo[0]
	st.fifo = st.fifo[1:]
	st.mu.Unlock()

	c.net.laneAdvance(scope, window, to, m)
	if tk, ok := ctx.Value(tokenKeyType{}).(*token); ok {
		tk.advance(m)
	}
}

// stream returns (lazily creating) one directed stream's state.
func (n *Network) stream(k linkKey) *link {
	n.mu.Lock()
	st, ok := n.links[k]
	if !ok {
		st = &link{}
		n.links[k] = st
	}
	n.mu.Unlock()
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

// tokenKeyType keys the virtual-time branch carried by a context.
type tokenKeyType struct{}

// token is a forked virtual-time branch: a private (clock, depth) line for
// one concurrent exchange inside a window, isolated from the party's shared
// lane so interleaving with sibling exchanges cannot perturb timestamps.
type token struct {
	mu    sync.Mutex
	t     time.Duration
	depth int
}

func (tk *token) snapshot() (time.Duration, int) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.t, tk.depth
}

func (tk *token) advance(m meta) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if m.d > tk.t {
		tk.t = m.d
	}
	if m.depth > tk.depth {
		tk.depth = m.depth
	}
}

// ForkLane returns a context carrying a fresh virtual-time branch seeded
// from the party's current (scope, window) lane. Call it once at a
// deterministic point (before spawning concurrent exchanges), then Branch
// the result per goroutine. Sends through the returned context are
// timestamped against the branch instead of the shared lane; receives
// advance both.
func (c *Conn) ForkLane(ctx context.Context, scope string, window int) context.Context {
	t, depth := c.net.laneSnapshot(scope, window, c.inner.Party())
	return context.WithValue(ctx, tokenKeyType{}, &token{t: t, depth: depth})
}

// Branch clones the context's virtual-time branch at its current value,
// giving one concurrent exchange its own isolated line. Contexts without a
// branch pass through unchanged (emulation disabled, or never forked).
func Branch(ctx context.Context) context.Context {
	tk, ok := ctx.Value(tokenKeyType{}).(*token)
	if !ok {
		return ctx
	}
	t, depth := tk.snapshot()
	return context.WithValue(ctx, tokenKeyType{}, &token{t: t, depth: depth})
}
