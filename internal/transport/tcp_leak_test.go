package transport

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for the runtime's goroutine count to stop moving
// and returns it.
func settleGoroutines() int {
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		time.Sleep(10 * time.Millisecond)
		if runtime.NumGoroutine() == n {
			break
		}
	}
	return n
}

// TestTCPNoGoroutineLeakOnCancelledRecvAny is the transport-lifecycle
// regression test mirroring the paillier.Workers leak test: repeatedly
// standing up a TCP node pair, cancelling a RecvAny mid-wait, exchanging a
// frame and tearing everything down must not accumulate goroutines —
// neither the mailbox waiter nor the accept/read loops may outlive Close.
func TestTCPNoGoroutineLeakOnCancelledRecvAny(t *testing.T) {
	cycle := func() {
		a, err := ListenTCP("a", "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ListenTCP("b", "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		a.SetPeer("b", b.Addr())
		b.SetPeer("a", a.Addr())

		// A receiver parked in RecvAny with nothing inbound, killed by
		// context cancellation mid-wait.
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := a.RecvAny(ctx, "never", []string{"b"})
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err == nil {
				t.Error("cancelled RecvAny returned nil error")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("RecvAny not unblocked by cancellation")
		}

		// The node must still work after the cancelled wait (the abandoned
		// waiter channel may not wedge the mailbox), and a real frame wakes
		// a live RecvAny.
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := b.Send(sctx, "a", "t", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if from, msg, err := a.RecvAny(sctx, "t", []string{"b"}); err != nil || from != "b" || string(msg) != "x" {
			t.Fatalf("post-cancel RecvAny: %q/%q, %v", from, msg, err)
		}

		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}

	cycle() // warm-up: lazily-started runtime goroutines don't count
	before := settleGoroutines()
	for i := 0; i < 5; i++ {
		cycle()
	}
	after := settleGoroutines()
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d across TCP cancel/close cycles", before, after)
	}
}
