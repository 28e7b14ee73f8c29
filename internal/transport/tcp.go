package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// frameHeaderSize is the fixed framing overhead per message: a 4-byte total
// length plus three 2-byte field lengths (from, to, tag).
const frameHeaderSize = 4 + 2 + 2 + 2

// maxFrameSize bounds a single message; PEM messages are ciphertexts and
// garbled-circuit tables, comfortably below this.
const maxFrameSize = 64 << 20

// TCPNode is a Conn implementation backed by real TCP sockets. Each node
// listens on its own address and lazily dials peers from a static roster,
// mirroring how the paper's per-agent Docker containers communicate.
type TCPNode struct {
	party   string
	ln      net.Listener
	roster  map[string]string // party -> address
	mbox    *mailbox
	metrics *Metrics

	mu      sync.Mutex
	conns   map[string]*tcpConn   // outbound connections
	inbound map[net.Conn]struct{} // accepted connections (closed on Close)

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
}

var _ Conn = (*TCPNode)(nil)

// tcpConn pairs an outbound connection with its own write mutex so that a
// frame in flight to one peer never serializes sends to other peers. Only
// frame writes need the lock: each connection has exactly one writer path
// (Send) and the mutex keeps concurrent frames to the same peer from
// interleaving mid-frame.
type tcpConn struct {
	net.Conn
	wmu sync.Mutex
}

func (c *tcpConn) writeFrame(msg Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return writeFrame(c.Conn, msg)
}

// ListenTCP starts a node for party on addr (e.g. "127.0.0.1:0"). roster
// maps every peer party to its dialable address; it may include the local
// party (ignored). If metrics is nil a fresh sink is used.
func ListenTCP(party, addr string, roster map[string]string, metrics *Metrics) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	if metrics == nil {
		metrics = NewMetrics()
	}
	r := make(map[string]string, len(roster))
	for k, v := range roster {
		r[k] = v
	}
	n := &TCPNode{
		party:   party,
		ln:      ln,
		roster:  r,
		mbox:    newMailbox(),
		metrics: metrics,
		conns:   make(map[string]*tcpConn),
		inbound: make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's bound listen address (useful with ":0").
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// SetPeer adds or updates a peer address in the roster.
func (n *TCPNode) SetPeer(party, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.roster[party] = addr
}

// Party implements Conn.
func (n *TCPNode) Party() string { return n.party }

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.readLoop(conn)
		}()
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	for {
		msg, err := readFrame(conn)
		if err != nil {
			return
		}
		if msg.To != n.party {
			continue // misrouted frame; drop
		}
		if n.mbox.push(msg) != nil {
			return
		}
	}
}

// Send implements Conn.
func (n *TCPNode) Send(ctx context.Context, to, tag string, payload []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-n.closed:
		return ErrClosed
	default:
	}
	conn, err := n.dial(ctx, to)
	if err != nil {
		return err
	}
	msg := Message{From: n.party, To: to, Tag: tag, Payload: payload}
	// Only this connection's write mutex is held across the (potentially
	// blocking) network write: a stalled peer cannot delay sends to healthy
	// ones.
	if err := conn.writeFrame(msg); err != nil {
		// Connection broke: drop it so the next Send re-dials.
		n.mu.Lock()
		if c, ok := n.conns[to]; ok && c == conn {
			delete(n.conns, to)
			c.Close()
		}
		n.mu.Unlock()
		return fmt.Errorf("transport: send to %q: %w", to, err)
	}
	n.metrics.recordSend(tag, msg.wireSize())
	return nil
}

func (n *TCPNode) dial(ctx context.Context, to string) (*tcpConn, error) {
	n.mu.Lock()
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	addr, ok := n.roster[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownParty, to)
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q (%s): %w", to, addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if existing, ok := n.conns[to]; ok {
		c.Close()
		return existing, nil
	}
	tc := &tcpConn{Conn: c}
	n.conns[to] = tc
	return tc, nil
}

// Recv implements Conn.
func (n *TCPNode) Recv(ctx context.Context, from, tag string) ([]byte, error) {
	return n.mbox.pop(ctx, from, tag)
}

// RecvAny implements Conn.
func (n *TCPNode) RecvAny(ctx context.Context, tag string, froms []string) (string, []byte, error) {
	return n.mbox.popAny(ctx, tag, froms)
}

// Close implements Conn. It stops the accept loop, closes all connections
// and waits for reader goroutines to exit.
func (n *TCPNode) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.ln.Close()
		n.mu.Lock()
		for _, c := range n.conns {
			c.Close()
		}
		n.conns = make(map[string]*tcpConn)
		// Closing inbound connections unblocks their readLoops; without
		// this, Close deadlocks waiting for readers whose peers close
		// after us.
		for c := range n.inbound {
			c.Close()
		}
		n.mu.Unlock()
		n.mbox.close()
	})
	n.wg.Wait()
	return nil
}

// writeFrame encodes msg as:
//
//	u32 totalLen | u16 fromLen | u16 toLen | u16 tagLen | from | to | tag | payload
func writeFrame(w io.Writer, msg Message) error {
	fromB, toB, tagB := []byte(msg.From), []byte(msg.To), []byte(msg.Tag)
	if len(fromB) > 0xffff || len(toB) > 0xffff || len(tagB) > 0xffff {
		return errors.New("transport: address field too long")
	}
	total := 6 + len(fromB) + len(toB) + len(tagB) + len(msg.Payload)
	if total > maxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	buf := GetFrame(4 + total)
	defer PutFrame(buf)
	binary.BigEndian.PutUint32(buf[0:], uint32(total))
	binary.BigEndian.PutUint16(buf[4:], uint16(len(fromB)))
	binary.BigEndian.PutUint16(buf[6:], uint16(len(toB)))
	binary.BigEndian.PutUint16(buf[8:], uint16(len(tagB)))
	off := 10
	off += copy(buf[off:], fromB)
	off += copy(buf[off:], toB)
	off += copy(buf[off:], tagB)
	copy(buf[off:], msg.Payload)
	_, err := w.Write(buf)
	return err
}

// readFrame decodes one frame from r.
func readFrame(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 6 || total > maxFrameSize {
		return Message{}, fmt.Errorf("transport: bad frame length %d", total)
	}
	body := GetFrame(int(total))
	defer PutFrame(body)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, err
	}
	fromLen := int(binary.BigEndian.Uint16(body[0:]))
	toLen := int(binary.BigEndian.Uint16(body[2:]))
	tagLen := int(binary.BigEndian.Uint16(body[4:]))
	if 6+fromLen+toLen+tagLen > int(total) {
		return Message{}, errors.New("transport: frame field lengths exceed body")
	}
	off := 6
	from := string(body[off : off+fromLen])
	off += fromLen
	to := string(body[off : off+toLen])
	off += toLen
	tag := string(body[off : off+tagLen])
	off += tagLen
	// The payload gets its own pooled frame (ownership passes to the
	// receiver, who may PutFrame it after decoding); the transient body
	// frame is recycled here.
	payload := GetFrame(len(body) - off)
	copy(payload, body[off:])
	return Message{From: from, To: to, Tag: tag, Payload: payload}, nil
}
