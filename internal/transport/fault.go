package transport

import (
	"context"
	"sync"
)

// FaultConn wraps a Conn with programmable failure injection for tests:
// dropping messages, corrupting payloads, or failing sends outright. The
// PEM protocols must detect such faults and abort the trading window rather
// than produce incorrect trades.
//
// Faults can be scoped to a single trading window's tag namespace (see
// ScopedWindowTag), which lets the pipelined-scheduler tests kill one
// in-flight window while asserting its neighbours complete untouched. A
// window fault names the window number and bare protocol tag, and fires
// under whatever scope the window runs in.
type FaultConn struct {
	inner Conn

	mu      sync.Mutex
	dropTag map[faultKey]int // remaining drops
	corrupt map[faultKey]int // remaining corruptions
	failWin map[int]bool     // window -> fail every send in its namespace
	failAll bool
}

// faultKey names the sends a drop or corruption matches: a window tag's
// window and bare protocol tag, whatever its scope, or any other tag whole
// (window -1).
type faultKey struct {
	window int
	tag    string
}

// keyOf reads a tag as the faultKey it matches.
func keyOf(tag string) faultKey {
	if _, w, rest, ok := ParseScopedWindowTag(tag); ok {
		return faultKey{w, rest}
	}
	return faultKey{-1, tag}
}

var _ Conn = (*FaultConn)(nil)

// NewFaultConn wraps inner.
func NewFaultConn(inner Conn) *FaultConn {
	return &FaultConn{
		inner:   inner,
		dropTag: make(map[faultKey]int),
		corrupt: make(map[faultKey]int),
		failWin: make(map[int]bool),
	}
}

// DropNext silently discards the next n sends with the given tag; a window
// tag matches its window in any scope.
func (f *FaultConn) DropNext(tag string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropTag[keyOf(tag)] += n
}

// CorruptNext flips bits in the next n sends with the given tag; a window
// tag matches its window in any scope.
func (f *FaultConn) CorruptNext(tag string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corrupt[keyOf(tag)] += n
}

// DropNextInWindow scopes DropNext to one window's namespace.
func (f *FaultConn) DropNextInWindow(window int, tag string, n int) {
	f.DropNext(ScopedWindowTag("", window, tag), n)
}

// CorruptNextInWindow scopes CorruptNext to one window's namespace.
func (f *FaultConn) CorruptNextInWindow(window int, tag string, n int) {
	f.CorruptNext(ScopedWindowTag("", window, tag), n)
}

// FailAll makes every subsequent Send return ErrClosed.
func (f *FaultConn) FailAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAll = true
}

// FailWindow makes every subsequent Send inside the given window's tag
// namespace return ErrClosed, leaving other windows and session traffic
// untouched.
func (f *FaultConn) FailWindow(window int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWin[window] = true
}

// Party implements Conn.
func (f *FaultConn) Party() string { return f.inner.Party() }

// Inner returns the wrapped endpoint, so SendNeverBlocks can unwrap a conn
// stack through the fault injector down to the transport.
func (f *FaultConn) Inner() Conn { return f.inner }

// Send implements Conn with fault injection.
func (f *FaultConn) Send(ctx context.Context, to, tag string, payload []byte) error {
	k := keyOf(tag)
	f.mu.Lock()
	if f.failAll || k.window >= 0 && f.failWin[k.window] {
		f.mu.Unlock()
		return ErrClosed
	}
	if f.dropTag[k] > 0 {
		f.dropTag[k]--
		f.mu.Unlock()
		return nil // silently dropped
	}
	if f.corrupt[k] > 0 {
		f.corrupt[k]--
		f.mu.Unlock()
		bad := append([]byte(nil), payload...)
		if len(bad) > 0 {
			bad[len(bad)/2] ^= 0xff
		} else {
			bad = []byte{0xff}
		}
		return f.inner.Send(ctx, to, tag, bad)
	}
	f.mu.Unlock()
	return f.inner.Send(ctx, to, tag, payload)
}

// Recv implements Conn.
func (f *FaultConn) Recv(ctx context.Context, from, tag string) ([]byte, error) {
	return f.inner.Recv(ctx, from, tag)
}

// RecvAny implements Conn.
func (f *FaultConn) RecvAny(ctx context.Context, tag string, froms []string) (string, []byte, error) {
	return f.inner.RecvAny(ctx, tag, froms)
}

// Close implements Conn.
func (f *FaultConn) Close() error { return f.inner.Close() }
