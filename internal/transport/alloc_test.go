package transport

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// Allocation-budget tests for the transport hot path: the frame pool, the
// window accounting on every send and the blocking receive.
// testing.AllocsPerRun's warm-up call absorbs one-time pool priming, so the
// budgets are steady-state figures.

// TestFramePoolSteadyStateAllocFree pins the pooled frame cycle: once the
// size class is primed, Get/Put allocates nothing.
func TestFramePoolSteadyStateAllocFree(t *testing.T) {
	for _, n := range []int{64, 1024, 65536} {
		avg := testing.AllocsPerRun(100, func() {
			b := GetFrame(n)
			PutFrame(b)
		})
		if avg != 0 {
			t.Errorf("GetFrame(%d)/PutFrame: %.1f allocs/op, want 0", n, avg)
		}
	}
}

// TestWindowSendAllocFree pins the per-window accounting every send pays:
// a bus Send and Recv under an open window add to the context's counters
// and allocate nothing in steady state.
func TestWindowSendAllocFree(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	ctx := bus.Metrics().OpenWindow(context.Background())
	tag := ScopedWindowTag("c0", 0, "role")
	payload := []byte{1}
	avg := testing.AllocsPerRun(100, func() {
		if err := a.Send(ctx, "b", tag, payload); err != nil {
			t.Fatal(err)
		}
		p, err := b.Recv(ctx, "a", tag)
		if err != nil {
			t.Fatal(err)
		}
		PutFrame(p)
	})
	if avg != 0 {
		t.Errorf("window Send+Recv: %.1f allocs/op, want 0", avg)
	}
	if _, msgs := EndWindow(ctx); msgs != 101 {
		t.Errorf("window counted %d messages, want 101", msgs)
	}
}

// TestBlockingRecvAllocFree pins the one blocking receive: a RecvAny (and
// a Recv, its one-peer case) that blocks before its message arrives waits
// on a recycled token, so in steady state the wait allocates nothing. The
// sender waits until the receiver's token is registered, so each measured
// receive blocks before its message arrives.
func TestBlockingRecvAllocFree(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	bus := NewBus(nil)
	sink := bus.MustRegister("sink")
	b := bus.MustRegister("b")
	bus.MustRegister("c")
	mb := sink.(*memConn).mbox
	ctx := context.Background()
	froms := []string{"b", "c"}
	payload := []byte{1, 2, 3}

	start, sent := make(chan struct{}), make(chan error)
	go func() {
		for range start {
			// A receive that waits some other way (no token registered)
			// gets its message after a bounded grace instead of never.
			deadline := time.Now().Add(10 * time.Millisecond)
			for blocked := false; !blocked && time.Now().Before(deadline); runtime.Gosched() {
				mb.mu.Lock()
				blocked = len(mb.wait) > 0
				mb.mu.Unlock()
			}
			sent <- b.Send(ctx, "sink", "t", payload)
		}
	}()
	defer close(start)

	for _, recv := range []struct {
		name string
		fn   func() ([]byte, error)
	}{
		{"RecvAny", func() ([]byte, error) {
			_, p, err := sink.RecvAny(ctx, "t", froms)
			return p, err
		}},
		{"Recv", func() ([]byte, error) { return sink.Recv(ctx, "b", "t") }},
	} {
		avg := testing.AllocsPerRun(100, func() {
			start <- struct{}{}
			p, err := recv.fn()
			if serr := <-sent; err == nil {
				err = serr
			}
			if err != nil {
				t.Fatal(err)
			}
			PutFrame(p)
		})
		if avg != 0 {
			t.Errorf("blocking %s: %.1f allocs/op, want 0", recv.name, avg)
		}
	}
}
