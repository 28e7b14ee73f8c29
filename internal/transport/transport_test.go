package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBusSendRecv(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("alice")
	b := bus.MustRegister("bob")
	ctx := context.Background()

	if err := a.Send(ctx, "bob", "greet", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx, "alice", "greet")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
}

func TestBusDuplicateRegistration(t *testing.T) {
	bus := NewBus(nil)
	if _, err := bus.Register("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Register("x"); err == nil {
		t.Error("duplicate registration: want error")
	}
}

func TestBusUnknownParty(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	if err := a.Send(context.Background(), "ghost", "t", nil); err == nil {
		t.Error("send to unknown party: want error")
	}
}

func TestBusTagDemux(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	ctx := context.Background()

	// Interleave tags; Recv must pick the matching one regardless of
	// arrival order.
	if err := a.Send(ctx, "b", "t2", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, "b", "t1", []byte("one")); err != nil {
		t.Fatal(err)
	}
	got1, err := b.Recv(ctx, "a", "t1")
	if err != nil {
		t.Fatal(err)
	}
	got2, err := b.Recv(ctx, "a", "t2")
	if err != nil {
		t.Fatal(err)
	}
	if string(got1) != "one" || string(got2) != "two" {
		t.Errorf("demux: got %q, %q", got1, got2)
	}
}

func TestBusFIFOPerTag(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := a.Send(ctx, "b", "seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := b.Recv(ctx, "a", "seq")
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("out of order: want %d got %d", i, got[0])
		}
	}
}

func TestBusBlockingRecv(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	ctx := context.Background()

	done := make(chan []byte, 1)
	go func() {
		got, err := b.Recv(ctx, "a", "later")
		if err != nil {
			done <- nil
			return
		}
		done <- got
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Send(ctx, "b", "later", []byte("now")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if string(got) != "now" {
			t.Errorf("got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never returned")
	}
}

func TestBusRecvContextCancel(t *testing.T) {
	bus := NewBus(nil)
	b := bus.MustRegister("b")
	bus.MustRegister("a")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(ctx, "a", "never"); err == nil {
		t.Error("Recv past deadline: want error")
	}
}

func TestBusCloseUnblocksRecv(t *testing.T) {
	bus := NewBus(nil)
	b := bus.MustRegister("b")
	bus.MustRegister("a")
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv(context.Background(), "a", "x")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Recv after close: want error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv not unblocked by Close")
	}
}

func TestBusPayloadCopied(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	ctx := context.Background()
	buf := []byte("original")
	if err := a.Send(ctx, "b", "t", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXX")
	got, err := b.Recv(ctx, "a", "t")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Errorf("payload aliased sender buffer: %q", got)
	}
}

func TestMetricsAccounting(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	bus.MustRegister("b")
	ctx := context.Background()
	payload := bytes.Repeat([]byte{1}, 100)
	if err := a.Send(ctx, "b", "tag", payload); err != nil {
		t.Fatal(err)
	}
	m := bus.Metrics()
	want := int64(100 + 1 + 1 + 3 + frameHeaderSize)
	if m.TotalBytes() != want {
		t.Errorf("TotalBytes = %d, want %d", m.TotalBytes(), want)
	}
	if m.TotalMessages() != 1 {
		t.Errorf("TotalMessages = %d, want 1", m.TotalMessages())
	}
	if m.LiveWindows() != 0 {
		t.Errorf("a send whose context has no window opened %d windows", m.LiveWindows())
	}
}

func TestConcurrentSenders(t *testing.T) {
	bus := NewBus(nil)
	recv := bus.MustRegister("sink")
	const senders = 8
	const perSender = 50
	ctx := context.Background()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		conn := bus.MustRegister(fmt.Sprintf("s%d", s))
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := c.Send(ctx, "sink", "load", []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	for s := 0; s < senders; s++ {
		for i := 0; i < perSender; i++ {
			if _, err := recv.Recv(ctx, fmt.Sprintf("s%d", s), "load"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	metrics := NewMetrics()
	nodeA, err := ListenTCP("a", "127.0.0.1:0", metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := ListenTCP("b", "127.0.0.1:0", metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	nodeA.SetPeer("b", nodeB.Addr())
	nodeB.SetPeer("a", nodeA.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := nodeA.Send(ctx, "b", "ping", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := nodeB.Recv(ctx, "a", "ping")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over tcp" {
		t.Errorf("got %q", got)
	}

	// Reply on the reverse direction (separate connection).
	if err := nodeB.Send(ctx, "a", "pong", []byte("back")); err != nil {
		t.Fatal(err)
	}
	got, err = nodeA.Recv(ctx, "b", "pong")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "back" {
		t.Errorf("got %q", got)
	}
	if metrics.TotalMessages() != 2 {
		t.Errorf("TotalMessages = %d, want 2", metrics.TotalMessages())
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	node, err := ListenTCP("solo", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Send(context.Background(), "ghost", "t", nil); err == nil {
		t.Error("send to unknown peer: want error")
	}
}

func TestTCPManyMessages(t *testing.T) {
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
	a.SetPeer("b", b.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const n = 200
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i%97)
		if err := a.Send(ctx, "b", "bulk", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := b.Recv(ctx, "a", "bulk")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1+i%97 || got[0] != byte(i) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := a.Send(context.Background(), "b", "t", nil); err == nil {
		t.Error("send after close: want error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{From: "alice", To: "bob", Tag: "tag/1", Payload: []byte{1, 2, 3}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.From != in.From || out.To != in.To || out.Tag != in.Tag || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("frame round trip mismatch: %+v", out)
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Field lengths exceeding body size must error, not panic.
	var buf bytes.Buffer
	in := Message{From: "a", To: "b", Tag: "t", Payload: []byte("xy")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 0xff // inflate fromLen
	raw[5] = 0xff
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted frame: want error")
	}
}

func TestFaultConnDrop(t *testing.T) {
	bus := NewBus(nil)
	inner := bus.MustRegister("a")
	b := bus.MustRegister("b")
	f := NewFaultConn(inner)
	ctx := context.Background()

	f.DropNext("x", 1)
	if err := f.Send(ctx, "b", "x", []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(ctx, "b", "x", []byte("arrives")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx, "a", "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "arrives" {
		t.Errorf("drop failed: got %q", got)
	}
}

func TestFaultConnCorrupt(t *testing.T) {
	bus := NewBus(nil)
	inner := bus.MustRegister("a")
	b := bus.MustRegister("b")
	f := NewFaultConn(inner)
	ctx := context.Background()

	f.CorruptNext("x", 1)
	if err := f.Send(ctx, "b", "x", []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx, "a", "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "pristine" {
		t.Error("payload was not corrupted")
	}
}

func TestFaultConnFailAll(t *testing.T) {
	bus := NewBus(nil)
	inner := bus.MustRegister("a")
	bus.MustRegister("b")
	f := NewFaultConn(inner)
	f.FailAll()
	if err := f.Send(context.Background(), "b", "x", nil); err == nil {
		t.Error("FailAll: want error")
	}
}

func TestTCPCloseOrderingNoDeadlock(t *testing.T) {
	// Regression: closing nodes in any order must not deadlock even while
	// peers hold inbound connections open (found by the networked-market
	// example, where LIFO defers closed the dialer last).
	var nodes []*TCPNode
	names := []string{"n0", "n1", "n2"}
	for _, name := range names {
		n, err := ListenTCP(name, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].SetPeer(names[j], nodes[j].Addr())
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Full mesh of sends so every node holds inbound connections.
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			if err := nodes[i].Send(ctx, names[j], "mesh", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Close in creation order: each Close must return even though
		// later nodes still hold connections into this one.
		for _, n := range nodes {
			n.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Close deadlocked")
	}
}

func TestWindowTagRoundTrip(t *testing.T) {
	cases := []struct {
		window int
		tag    string
	}{
		{0, "role"}, {3, "pme/rb"}, {47, "pd/ring"}, {123456, "x"},
	}
	for _, c := range cases {
		full := ScopedWindowTag("", c.window, c.tag)
		scope, w, rest, ok := ParseScopedWindowTag(full)
		if !ok || scope != "" || w != c.window || rest != c.tag {
			t.Errorf("round trip %q -> (%q, %d, %q, %v)", full, scope, w, rest, ok)
		}
	}
	for _, bad := range []string{"", "role", "w/x", "wx/y", "w-1/x", "w3", "keys/paillier"} {
		if _, _, _, ok := ParseScopedWindowTag(bad); ok {
			t.Errorf("ParseScopedWindowTag accepted %q", bad)
		}
	}
}

func TestMetricsWindowBytes(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	bus.MustRegister("b")
	m := bus.Metrics()
	w4, w5, w7 := m.OpenWindow(context.Background()), m.OpenWindow(context.Background()), m.OpenWindow(context.Background())

	payload := []byte("0123456789")
	if err := a.Send(w4, "b", ScopedWindowTag("", 4, "pme/rb"), payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(w7, "b", ScopedWindowTag("", 7, "pme/rb"), payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", "keys/paillier", payload); err != nil {
		t.Fatal(err)
	}
	b4, _ := EndWindow(w4)
	b7, _ := EndWindow(w7)
	if b4 <= 0 || b7 <= 0 {
		t.Fatalf("window bytes not recorded: w4=%d w7=%d", b4, b7)
	}
	if b4+b7 >= m.TotalBytes() {
		t.Fatalf("session traffic leaked into window accounting: %d+%d vs total %d", b4, b7, m.TotalBytes())
	}
	if b5, _ := EndWindow(w5); b5 != 0 {
		t.Error("untouched window has traffic")
	}
}

func TestFaultConnFailWindow(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	fc := NewFaultConn(a)
	fc.FailWindow(2)
	ctx := context.Background()

	if err := fc.Send(ctx, "b", ScopedWindowTag("", 2, "role"), []byte{1}); err == nil {
		t.Fatal("send in failed window succeeded")
	}
	if err := fc.Send(ctx, "b", ScopedWindowTag("", 1, "role"), []byte{1}); err != nil {
		t.Fatalf("neighbouring window affected: %v", err)
	}
	if err := fc.Send(ctx, "b", "keys/paillier", []byte{1}); err != nil {
		t.Fatalf("session traffic affected: %v", err)
	}
	if _, err := b.Recv(ctx, "a", ScopedWindowTag("", 1, "role")); err != nil {
		t.Fatal(err)
	}
}

func TestFaultConnWindowScopedDropCorrupt(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	fc := NewFaultConn(a)
	fc.DropNextInWindow(3, "role", 1)
	fc.CorruptNextInWindow(5, "role", 1)
	ctx := context.Background()

	// Window 3: dropped; window 4: clean; window 5: corrupted.
	for _, w := range []int{3, 4, 5} {
		if err := fc.Send(ctx, "b", ScopedWindowTag("", w, "role"), []byte{0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Recv(ctx, "a", ScopedWindowTag("", 4, "role"))
	if err != nil || len(got) != 1 || got[0] != 0xaa {
		t.Fatalf("clean window payload wrong: %v %v", got, err)
	}
	got, err = b.Recv(ctx, "a", ScopedWindowTag("", 5, "role"))
	if err != nil || len(got) != 1 || got[0] == 0xaa {
		t.Fatalf("corrupted window payload unchanged: %v %v", got, err)
	}
	ctxShort, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(ctxShort, "a", ScopedWindowTag("", 3, "role")); err == nil {
		t.Fatal("dropped message arrived")
	}
}

// TestFaultConnWindowFaultsAnyScope: a window fault names a window number
// and fires under any scope the window's tags carry.
func TestFaultConnWindowFaultsAnyScope(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	fc := NewFaultConn(a)
	fc.FailWindow(2)
	fc.DropNextInWindow(3, "role", 1)
	fc.CorruptNext("w5/role", 1)
	ctx := context.Background()

	if err := fc.Send(ctx, "b", ScopedWindowTag("c00", 2, "role"), []byte{1}); err == nil {
		t.Fatal("send in a failed window of scope c00 succeeded")
	}
	for _, w := range []int{3, 4, 5} {
		if err := fc.Send(ctx, "b", ScopedWindowTag("c01", w, "role"), []byte{0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := b.Recv(ctx, "a", ScopedWindowTag("c01", 4, "role")); err != nil || got[0] != 0xaa {
		t.Fatalf("clean window payload wrong: %v %v", got, err)
	}
	if got, err := b.Recv(ctx, "a", ScopedWindowTag("c01", 5, "role")); err != nil || got[0] == 0xaa {
		t.Fatalf("corrupted window payload unchanged: %v %v", got, err)
	}
	ctxShort, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(ctxShort, "a", ScopedWindowTag("c01", 3, "role")); err == nil {
		t.Fatal("dropped message arrived")
	}
}
