package transport

import (
	"context"
	"testing"
)

func TestScopedWindowTagRoundTrip(t *testing.T) {
	cases := []struct {
		scope  string
		window int
		tag    string
	}{
		{"", 0, "role"},
		{"", 41, "pme/rb"},
		{"c0", 0, "role"},
		{"c17", 311, "pd/ratios"},
		{"shard-2.east", 5, "pp/ring"},
	}
	for _, c := range cases {
		full := ScopedWindowTag(c.scope, c.window, c.tag)
		scope, w, rest, ok := ParseScopedWindowTag(full)
		if !ok || scope != c.scope || w != c.window || rest != c.tag {
			t.Errorf("round trip %+v -> %q -> (%q, %d, %q, %v)", c, full, scope, w, rest, ok)
		}
	}
	// The unscoped form must stay the original "w<n>/<tag>" wire format, so
	// solo engines keep it.
	if got, want := ScopedWindowTag("", 7, "role"), "w7/role"; got != want {
		t.Errorf("empty scope tag = %q, want %q", got, want)
	}
	for _, bad := range []string{"keys/paillier", "role", "c3/role", "c3/wx/role", "/w1/role", "a b/w1/role", "w2/w1/role"} {
		if scope, w, rest, ok := ParseScopedWindowTag(bad); ok && scope != "" {
			t.Errorf("ParseScopedWindowTag accepted %q as scoped (%q, %d, %q)", bad, scope, w, rest)
		}
	}
}

func TestValidScope(t *testing.T) {
	for _, good := range []string{"c0", "c17", "grid", "shard-2.east", "A_9"} {
		if !ValidScope(good) {
			t.Errorf("ValidScope(%q) = false", good)
		}
	}
	// "w<n>" shapes collide with the window namespace; separators and
	// spaces would break tag parsing.
	for _, bad := range []string{"", "w0", "w17", "a/b", "a b", "ü"} {
		if ValidScope(bad) {
			t.Errorf("ValidScope(%q) = true", bad)
		}
	}
	// "w" followed by non-digits is a fine scope.
	if !ValidScope("west") || !ValidScope("w2x") {
		t.Error("ValidScope rejected w-prefixed non-window scopes")
	}
}

// TestScopedMetricsIsolation is the accounting half of the coalition
// namespace guarantee: two coalitions running the same window number over
// one bus keep disjoint byte counters.
func TestScopedMetricsIsolation(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	bus.MustRegister("b")
	m := bus.Metrics()

	send := func(ctx context.Context, tag string, n int) {
		t.Helper()
		if err := a.Send(ctx, "b", tag, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	c0, c1, soloCtx := m.OpenWindow(context.Background()), m.OpenWindow(context.Background()), m.OpenWindow(context.Background())
	send(c0, ScopedWindowTag("c0", 3, "role"), 100)
	send(c1, ScopedWindowTag("c1", 3, "role"), 1000)
	send(soloCtx, ScopedWindowTag("", 3, "role"), 10)
	send(context.Background(), "keys/paillier", 7) // no window: counted only in totals

	if m.LiveWindows() != 3 {
		t.Errorf("LiveWindows = %d, want 3", m.LiveWindows())
	}
	w0, _ := EndWindow(c0)
	w1, _ := EndWindow(c1)
	solo, _ := EndWindow(soloCtx)
	if w0 == 0 || w1 == 0 || solo == 0 {
		t.Fatalf("missing attribution: c0=%d c1=%d solo=%d", w0, w1, solo)
	}
	if w1-w0 != 900 || w0-solo != int64(90+len("c0/")) {
		t.Errorf("cross-scope counters mixed: c0=%d c1=%d solo=%d", w0, w1, solo)
	}
	if m.TotalBytes() <= w0+w1+solo {
		t.Errorf("total %d should also include session traffic", m.TotalBytes())
	}
}

// TestScopedMailboxIsolation checks the demultiplexing half: same (from,
// window, tag) in two scopes lands in two distinct queues.
func TestScopedMailboxIsolation(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	b := bus.MustRegister("b")
	ctx := context.Background()

	if err := a.Send(ctx, "b", ScopedWindowTag("c1", 0, "role"), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, "b", ScopedWindowTag("c0", 0, "role"), []byte{0}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx, "a", ScopedWindowTag("c0", 0, "role"))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("scope c0 received scope c1's message: %v", got)
	}
}

// TestFoldWindowKeepsAggregates is the window-end contract: ending a
// window folds out only that window's counters while the totals it fed and
// every other open window stay exact.
func TestFoldWindowKeepsAggregates(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	bus.MustRegister("b")
	m := bus.Metrics()

	send := func(ctx context.Context, tag string, n int) {
		t.Helper()
		if err := a.Send(ctx, "b", tag, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	c0w1, c0w2, c1w1 := m.OpenWindow(context.Background()), m.OpenWindow(context.Background()), m.OpenWindow(context.Background())
	send(c0w1, ScopedWindowTag("c0", 1, "role"), 100)
	send(c0w2, ScopedWindowTag("c0", 2, "pme/x"), 200)
	send(c1w1, ScopedWindowTag("c1", 1, "role"), 50)

	totalB, totalM := m.TotalBytes(), m.TotalMessages()
	kept := int64(WireSize("a", "b", ScopedWindowTag("c0", 2, "pme/x"), make([]byte, 200)))
	if m.LiveWindows() != 3 {
		t.Fatalf("LiveWindows = %d, want 3", m.LiveWindows())
	}

	if b, msgs := EndWindow(c0w1); b != int64(WireSize("a", "b", ScopedWindowTag("c0", 1, "role"), make([]byte, 100))) || msgs != 1 {
		t.Errorf("end returned %d bytes over %d messages", b, msgs)
	}
	if m.LiveWindows() != 2 {
		t.Errorf("LiveWindows = %d after end, want 2", m.LiveWindows())
	}
	// Open windows are untouched.
	if got, _ := EndWindow(c0w2); got != kept {
		t.Errorf("open window reads %d bytes, want %d", got, kept)
	}
	if got, _ := EndWindow(c1w1); got == 0 {
		t.Error("other scope lost its bytes")
	}
	if m.TotalBytes() != totalB || m.TotalMessages() != totalM {
		t.Error("totals changed across end")
	}
	if m.LiveWindows() != 0 {
		t.Errorf("LiveWindows = %d after every end, want 0", m.LiveWindows())
	}
	// A context without a window ends nothing.
	if b, msgs := EndWindow(context.Background()); b != 0 || msgs != 0 || m.LiveWindows() != 0 {
		t.Errorf("windowless end returned %d bytes over %d messages", b, msgs)
	}
}
