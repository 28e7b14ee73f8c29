package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

func TestRecvAnyArrivalOrder(t *testing.T) {
	bus := NewBus(nil)
	sink := bus.MustRegister("sink")
	b := bus.MustRegister("b")
	c := bus.MustRegister("c")
	ctx := context.Background()

	// Only c has sent: RecvAny must return c's message even though b is
	// listed first — no head-of-line blocking on roster order.
	if err := c.Send(ctx, "sink", "t", []byte("from-c")); err != nil {
		t.Fatal(err)
	}
	from, payload, err := sink.RecvAny(ctx, "t", []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if from != "c" || string(payload) != "from-c" {
		t.Fatalf("got %q/%q", from, payload)
	}

	// Now b's late message is drained by the next call.
	if err := b.Send(ctx, "sink", "t", []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	from, payload, err = sink.RecvAny(ctx, "t", []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if from != "b" || string(payload) != "from-b" {
		t.Fatalf("got %q/%q", from, payload)
	}
}

func TestRecvAnyBlocksUntilArrival(t *testing.T) {
	bus := NewBus(nil)
	sink := bus.MustRegister("sink")
	b := bus.MustRegister("b")
	ctx := context.Background()

	type result struct {
		from    string
		payload []byte
		err     error
	}
	done := make(chan result, 1)
	go func() {
		from, payload, err := sink.RecvAny(ctx, "t", []string{"b", "c"})
		done <- result{from, payload, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("RecvAny returned early: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	if err := b.Send(ctx, "sink", "t", []byte("late")); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || r.from != "b" || string(r.payload) != "late" {
		t.Fatalf("got %+v", r)
	}
}

func TestRecvAnyIgnoresOtherTagsAndPeers(t *testing.T) {
	bus := NewBus(nil)
	sink := bus.MustRegister("sink")
	b := bus.MustRegister("b")
	c := bus.MustRegister("c")
	ctx := context.Background()

	// Wrong tag, and a peer outside the listed set: both must not satisfy
	// the RecvAny.
	if err := b.Send(ctx, "sink", "other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(ctx, "sink", "t", []byte("y")); err != nil {
		t.Fatal(err)
	}
	tctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if from, _, err := sink.RecvAny(tctx, "t", []string{"b"}); err == nil {
		t.Fatalf("RecvAny matched unexpected message from %q", from)
	}
	// The buffered messages are still available to the right receivers.
	if msg, err := sink.Recv(ctx, "b", "other"); err != nil || string(msg) != "x" {
		t.Fatalf("Recv b/other: %q, %v", msg, err)
	}
	if from, msg, err := sink.RecvAny(ctx, "t", []string{"b", "c"}); err != nil || from != "c" || string(msg) != "y" {
		t.Fatalf("RecvAny: %q/%q, %v", from, msg, err)
	}
}

func TestRecvAnyEmptyPeerSet(t *testing.T) {
	bus := NewBus(nil)
	sink := bus.MustRegister("sink")
	if _, _, err := sink.RecvAny(context.Background(), "t", nil); err == nil {
		t.Fatal("empty peer set accepted")
	}
}

func TestRecvAnyCloseUnblocks(t *testing.T) {
	bus := NewBus(nil)
	sink := bus.MustRegister("sink")
	errc := make(chan error, 1)
	go func() {
		_, _, err := sink.RecvAny(context.Background(), "t", []string{"b"})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	sink.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvAny not unblocked by Close")
	}
}

func TestTCPRecvAny(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetPeer("a", a.Addr())

	ctx := context.Background()
	if err := b.Send(ctx, "a", "t", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	from, payload, err := a.RecvAny(ctx, "t", []string{"zzz", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if from != "b" || string(payload) != "hi" {
		t.Fatalf("got %q/%q", from, payload)
	}
}

// TestTCPStalledPeerDoesNotBlockHealthySends is the regression test for
// the node-wide write lock: a send blocked on a stalled peer's socket must
// not serialize sends to healthy peers.
func TestTCPStalledPeerDoesNotBlockHealthySends(t *testing.T) {
	node, err := ListenTCP("sender", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	healthy, err := ListenTCP("healthy", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	// The stalled peer accepts connections but never reads from them, so a
	// large enough frame fills the kernel buffers and blocks the writer.
	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	acceptDone := make(chan net.Conn, 1)
	go func() {
		c, err := stalled.Accept()
		if err == nil {
			acceptDone <- c // held open, never read
		}
	}()

	node.SetPeer("healthy", healthy.Addr())
	node.SetPeer("stalled", stalled.Addr().String())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Saturate the stalled connection in the background: a 32 MB frame
	// cannot fit in the socket buffers, so this Send blocks inside
	// writeFrame.
	stalledErr := make(chan error, 1)
	go func() {
		stalledErr <- node.Send(ctx, "stalled", "bulk", make([]byte, 32<<20))
	}()

	// Give the bulk send time to reach the blocking write.
	time.Sleep(100 * time.Millisecond)

	// A healthy-peer send must complete promptly even while the bulk write
	// is stuck. With the old node-wide write lock this deadlines.
	start := time.Now()
	if err := node.Send(ctx, "healthy", "ping", []byte("x")); err != nil {
		t.Fatalf("healthy send failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("healthy send took %v behind a stalled peer", elapsed)
	}
	if msg, err := healthy.Recv(ctx, "sender", "ping"); err != nil || !bytes.Equal(msg, []byte("x")) {
		t.Fatalf("healthy recv: %q, %v", msg, err)
	}

	// Unblock the stalled writer so the node can shut down cleanly: closing
	// the peer's end of the connection makes the blocked write fail.
	cancel()
	select {
	case c := <-acceptDone:
		c.Close()
	case <-time.After(5 * time.Second):
	}
	select {
	case <-stalledErr:
	case <-time.After(10 * time.Second):
		// node.Close (deferred) tears the connection down regardless.
	}
}

// FuzzReadFrame checks the frame decoder never panics on corrupt input and
// that every accepted frame survives a write/read round trip.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Message{From: "a", To: "b", Tag: "w1/t", Payload: []byte("payload")}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 6, 0, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, msg); err != nil {
			// A decoded frame is within all field limits by construction.
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		back, err := readFrame(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if back.From != msg.From || back.To != msg.To || back.Tag != msg.Tag || !bytes.Equal(back.Payload, msg.Payload) {
			t.Fatal("round trip changed frame")
		}
	})
}
