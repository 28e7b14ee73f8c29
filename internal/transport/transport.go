// Package transport provides tag-addressed, party-to-party message passing
// for the PEM protocols. Two implementations are provided: an in-memory bus
// (goroutine-per-agent deployments, the default used by the benchmark
// harness, mirroring the paper's one-Docker-container-per-agent setup) and a
// TCP transport (real multi-process deployments; see cmd/pem-agent).
//
// A Conn belongs to exactly one party. Protocol code sends a payload to a
// peer under a tag (e.g. "pme/ring/4" for round 4 of Private Market
// Evaluation) and receives by (from, tag) pair. Out-of-order arrivals are
// buffered per (from, tag) queue, which lets independent sub-protocols share
// one connection without interfering.
//
// All byte counts that flow through a Conn are recorded in a Metrics sink,
// which the Table I bandwidth experiment reads; a window's own share is
// counted on the context it sends under (Metrics.OpenWindow, EndWindow).
package transport

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// ScopedWindowTag is the one builder of the window namespace: it scopes tag
// under a trading window, producing "w<window>/<tag>", and nests that under
// scope as "<scope>/w<window>/<tag>" when scope is non-empty. All
// window-scoped protocol traffic uses this form so that two windows in
// flight over the same Conn can never cross-talk: the (from, tag)
// demultiplexing key differs in the window prefix, and out-of-order
// arrivals from a faster window simply buffer in their own queues.
// Concurrent coalitions over one shared bus reuse window numbers freely:
// the scope prefix keeps their demultiplexing keys disjoint even if a party
// ID ever appeared in two rosters.
// The empty scope is the solo-engine wire format. Session-scoped traffic
// (e.g. the Paillier key exchange) uses bare tags outside any window
// namespace.
//
// Scopes must satisfy ValidScope (in particular they may not themselves
// look like a "w<n>" window prefix, which would make parsing ambiguous).
func ScopedWindowTag(scope string, window int, tag string) string {
	if scope == "" {
		return "w" + strconv.Itoa(window) + "/" + tag
	}
	return scope + "/w" + strconv.Itoa(window) + "/" + tag
}

// ParseScopedWindowTag is the one parser of the window namespace: it splits
// a tag of either form ScopedWindowTag builds into its scope (empty for the
// unscoped form), window number and bare protocol tag. ok is false for
// session-scoped tags outside any window namespace. FaultConn is its one
// attributing user: a window's traffic and emulation state ride the
// window's context instead (Metrics.OpenWindow).
func ParseScopedWindowTag(tag string) (scope string, window int, rest string, ok bool) {
	head, tail, found := strings.Cut(tag, "/")
	if !found {
		return "", 0, "", false
	}
	if w, ok := windowSegment(head); ok {
		return "", w, tail, true
	}
	if !ValidScope(head) {
		return "", 0, "", false
	}
	seg, rest, found := strings.Cut(tail, "/")
	w, ok := windowSegment(seg)
	if !found || !ok {
		return "", 0, "", false
	}
	return head, w, rest, true
}

// windowSegment reads one "w<n>" tag segment as window n.
func windowSegment(seg string) (int, bool) {
	if len(seg) < 2 || seg[0] != 'w' {
		return 0, false
	}
	w, err := strconv.Atoi(seg[1:])
	return w, err == nil && w >= 0
}

// ValidScope reports whether s can serve as a tag scope: non-empty, made of
// letters, digits, '.', '_' and '-', and not of the "w<n>" shape that names
// a window namespace.
func ValidScope(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	_, window := windowSegment(s)
	return !window
}

// Message is a single protocol datagram.
type Message struct {
	// From is the sender's registered party name.
	From string
	// To is the recipient's registered party name.
	To string
	// Tag routes the message to the recipient's matching Recv and carries
	// the scope namespace (see ScopedWindowTag).
	Tag string
	// Payload is the opaque protocol body.
	Payload []byte
}

// wireSize is the accounted size of a message: payload plus addressing
// overhead (the TCP framing encodes exactly these fields).
func (m *Message) wireSize() int {
	return len(m.Payload) + len(m.From) + len(m.To) + len(m.Tag) + frameHeaderSize
}

// WireSize returns the accounted on-wire size of one message — the figure
// the Metrics byte counters record. The network-emulation layer uses it to
// price serialization delay with exactly the accounted size.
func WireSize(from, to, tag string, payload []byte) int {
	m := Message{From: from, To: to, Tag: tag, Payload: payload}
	return m.wireSize()
}

// Conn is one party's endpoint.
//
// Send may be called from any goroutine. Recv must not be called
// concurrently for the same (from, tag) pair; the protocol code in this
// repository always runs a party's control flow on a single goroutine.
//
// Buffer ownership (the zero-copy hand-off rules; see also GetFrame):
//
//   - Send does not take ownership of payload: the sender may reuse or
//     PutFrame its buffer as soon as Send returns. Transports that must
//     retain bytes (the in-memory bus queues, the TCP writer) copy into
//     pooled frames internally.
//   - Recv and RecvAny transfer exclusive ownership of the returned payload
//     to the caller. Once the caller has decoded it, it may hand the buffer
//     back to the frame pool with PutFrame — every transport in this
//     package delivers pool-shaped buffers, which is what keeps the
//     steady-state window loop allocation-free. Dropping the payload
//     without PutFrame is always correct too, just garbage-collected.
type Conn interface {
	// Party returns the ID of the local party.
	Party() string
	// Send delivers payload to the peer under tag. Ownership of payload
	// stays with the caller (see the buffer ownership rules above).
	Send(ctx context.Context, to, tag string, payload []byte) error
	// Recv is RecvAny over one peer: it blocks until a message from the
	// given peer with the given tag arrives (or ctx is done) and returns
	// its payload, whose ownership passes to the caller (it may PutFrame it
	// after decoding).
	Recv(ctx context.Context, from, tag string) ([]byte, error)
	// RecvAny blocks until a message with the given tag arrives from any of
	// the listed peers and returns the sender with its payload — the
	// arrival-order receive primitive: a collector draining n peers takes
	// whichever message lands first instead of head-of-line blocking on a
	// fixed roster order. When several peers already have buffered
	// messages, the earliest peer in froms wins (deterministic drain). The
	// same concurrency rule as Recv applies: no two goroutines may wait on
	// overlapping (from, tag) pairs.
	RecvAny(ctx context.Context, tag string, froms []string) (from string, payload []byte, err error)
	// Close releases the endpoint. Pending and future Recv calls fail.
	Close() error
}

// Errors shared by transports.
var (
	ErrClosed       = errors.New("transport: connection closed")
	ErrUnknownParty = errors.New("transport: unknown destination party")
)

// SendNeverBlocks reports whether the connection's Send path enqueues
// without ever waiting on the peer — true for the in-memory bus (mailbox
// push under a briefly-held lock), false for socket transports, whose
// writes can stall on a slow receiver. Wrapper connections (fault
// injectors, the network-emulation layer — which prices messages on a
// virtual clock without wall-clock sleeps) are unwrapped through their
// Inner method. Callers use this to fan a broadcast out sequentially
// instead of paying one goroutine per peer when no send can block.
func SendNeverBlocks(c Conn) bool {
	for c != nil {
		if _, ok := c.(interface{ sendNeverBlocks() }); ok {
			return true
		}
		w, ok := c.(interface{ Inner() Conn })
		if !ok {
			return false
		}
		c = w.Inner()
	}
	return false
}

// inboxKey identifies a buffered queue.
type inboxKey struct {
	from string
	tag  string
}

// mailbox demultiplexes an incoming message stream into per-(from, tag)
// queues with one blocking receive, pop. It is the shared core of both
// transports.
//
// The steady-state path is allocation-lean: a blocked receive waits on one
// cap-1 buffered token, registered under every (from, tag) key it awaits
// and recycled through a freelist instead of closed-and-remade per block,
// and drained queue slices are recycled so a window's worth of (from, tag)
// keys reuses the same backing arrays.
type mailbox struct {
	mu     sync.Mutex
	queues map[inboxKey][][]byte
	wait   map[inboxKey]chan struct{} // signalled (token send) on push
	closed bool

	waitFree []chan struct{} // recycled wake-up channels
	qFree    [][][]byte      // recycled empty queue slices
}

func newMailbox() *mailbox {
	return &mailbox{
		queues: make(map[inboxKey][][]byte),
		wait:   make(map[inboxKey]chan struct{}),
	}
}

// Freelist bounds: beyond these, recycled channels and queue slices fall
// back to the garbage collector. Sized for one party's worst-case fan-in
// across the windows in flight.
const (
	mailboxWaitFreeMax  = 32
	mailboxQueueFreeMax = 64
)

func (mb *mailbox) push(m Message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	k := inboxKey{from: m.From, tag: m.Tag}
	q, ok := mb.queues[k]
	if !ok && len(mb.qFree) > 0 {
		q = mb.qFree[len(mb.qFree)-1]
		mb.qFree = mb.qFree[:len(mb.qFree)-1]
	}
	mb.queues[k] = append(q, m.Payload)
	if ch, ok := mb.wait[k]; ok {
		select {
		case ch <- struct{}{}:
		default:
		}
		delete(mb.wait, k)
	}
	return nil
}

// takeLocked removes the queue's head. The caller holds mb.mu and has
// checked len(q) > 0. Drained queues are recycled through qFree.
func (mb *mailbox) takeLocked(k inboxKey, q [][]byte) []byte {
	payload := q[0]
	q[0] = nil // release the payload reference from the recycled array
	if len(q) == 1 {
		delete(mb.queues, k)
		if len(mb.qFree) < mailboxQueueFreeMax {
			mb.qFree = append(mb.qFree, q[:0])
		}
	} else {
		mb.queues[k] = q[1:]
	}
	return payload
}

// waitChLocked returns a cap-1 wake-up token channel, recycled when
// possible. The caller holds mb.mu.
func (mb *mailbox) waitChLocked() chan struct{} {
	if n := len(mb.waitFree); n > 0 {
		ch := mb.waitFree[n-1]
		mb.waitFree = mb.waitFree[:n-1]
		return ch
	}
	return make(chan struct{}, 1)
}

// releaseWait deregisters ch from every (from, tag) key it is still
// registered under, drains any pending token, and recycles the channel.
func (mb *mailbox) releaseWait(tag string, froms []string, ch chan struct{}) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, from := range froms {
		if k := (inboxKey{from: from, tag: tag}); mb.wait[k] == ch {
			delete(mb.wait, k)
		}
	}
	select {
	case <-ch:
	default:
	}
	if len(mb.waitFree) < mailboxWaitFreeMax {
		mb.waitFree = append(mb.waitFree, ch)
	}
}

// pop removes and returns the first available message with the given tag
// from any of the listed senders, blocking until one arrives; Recv is its
// one-sender case. When several senders have buffered messages, the
// earliest sender in froms is drained first. A blocked pop waits on one
// token registered under each of its keys, which only a push to one of
// those keys (or close) signals.
func (mb *mailbox) pop(ctx context.Context, tag string, froms []string) (string, []byte, error) {
	if len(froms) == 0 {
		return "", nil, fmt.Errorf("transport: recv tag %q: empty peer set", tag)
	}
	var ch chan struct{}
	defer func() {
		if ch != nil {
			mb.releaseWait(tag, froms, ch)
		}
	}()
	for {
		mb.mu.Lock()
		for _, from := range froms {
			k := inboxKey{from: from, tag: tag}
			if q := mb.queues[k]; len(q) > 0 {
				payload := mb.takeLocked(k, q)
				mb.mu.Unlock()
				return from, payload, nil
			}
		}
		if mb.closed {
			mb.mu.Unlock()
			return "", nil, ErrClosed
		}
		if ch == nil {
			ch = mb.waitChLocked()
		}
		for _, from := range froms {
			mb.wait[inboxKey{from: from, tag: tag}] = ch
		}
		mb.mu.Unlock()

		select {
		case <-ch:
		case <-ctx.Done():
			// strings.Join, not %v: formatting froms would make every
			// Recv's one-sender slice escape to the heap.
			return "", nil, fmt.Errorf("transport: recv from %q tag %q: %w", strings.Join(froms, ","), tag, ctx.Err())
		}
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.closed = true
	for k, ch := range mb.wait {
		select {
		case ch <- struct{}{}:
		default:
		}
		delete(mb.wait, k)
	}
}
