package netem

import (
	"context"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/transport"
)

func TestPresets(t *testing.T) {
	names := Presets()
	if len(names) != 5 {
		t.Fatalf("presets = %v, want 5", names)
	}
	for _, name := range names {
		topo, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if topo.Name != name {
			t.Errorf("preset %q has Name %q", name, topo.Name)
		}
		if err := topo.validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if !ValidPreset(name) {
			t.Errorf("ValidPreset(%q) = false", name)
		}
	}
	if _, err := Preset("dialup"); err == nil {
		t.Error("unknown preset accepted")
	}
	if ValidPreset("") || ValidPreset("dialup") {
		t.Error("ValidPreset accepted a non-preset")
	}
}

func TestLinkParamsDefaults(t *testing.T) {
	p := LinkParams{Latency: 10 * time.Millisecond, Jitter: 2 * time.Millisecond}.withDefaults()
	if want := 38 * time.Millisecond; p.RTO != want {
		t.Errorf("derived RTO = %v, want %v", p.RTO, want)
	}
	if p := (LinkParams{}).withDefaults(); p.RTO != time.Millisecond {
		t.Errorf("zero-link RTO = %v, want 1ms floor", p.RTO)
	}
	if err := (LinkParams{Loss: 1}).validate(); err == nil {
		t.Error("loss = 1 accepted")
	}
	if err := (LinkParams{Latency: -1}).validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestPairSpreadSymmetricAndSeeded(t *testing.T) {
	topo, err := Preset(TopologyWAN)
	if err != nil {
		t.Fatal(err)
	}
	ab := topo.link(7, "a", "b")
	ba := topo.link(7, "b", "a")
	if ab.Latency != ba.Latency {
		t.Errorf("asymmetric pair latency: %v vs %v", ab.Latency, ba.Latency)
	}
	if again := topo.link(7, "a", "b"); again != ab {
		t.Errorf("same seed resolved different params: %+v vs %+v", again, ab)
	}
	lo := time.Duration(float64(topo.Base.Latency) * (1 - topo.Spread))
	hi := time.Duration(float64(topo.Base.Latency) * (1 + topo.Spread))
	if ab.Latency < lo || ab.Latency > hi {
		t.Errorf("pair latency %v outside spread [%v, %v]", ab.Latency, lo, hi)
	}
	// Different pairs should (with these names and seed) land on different
	// latencies — the point of the spread.
	cd := topo.link(7, "c", "d")
	if cd.Latency == ab.Latency {
		t.Errorf("distinct pairs share latency %v", ab.Latency)
	}
}

// wire builds a wrapped two-party (plus extras) bus for conn-level tests.
func wire(t *testing.T, topo Topology, seed int64, parties ...string) (*Network, map[string]*Conn) {
	t.Helper()
	bus := transport.NewBus(nil)
	n, err := New(topo, seed)
	if err != nil {
		t.Fatal(err)
	}
	conns := make(map[string]*Conn, len(parties))
	for _, p := range parties {
		conns[p] = n.Wrap(bus.MustRegister(p))
	}
	return n, conns
}

// fixedTopo is a spread-free topology for exact-arithmetic tests.
func fixedTopo(latency time.Duration, bandwidth int64) Topology {
	return Topology{Name: "test", Base: LinkParams{Latency: latency, Bandwidth: bandwidth}}
}

func TestVirtualChainAccumulates(t *testing.T) {
	const hop = 10 * time.Millisecond
	n, conns := wire(t, fixedTopo(hop, 0), 1, "a", "b", "c")
	ctx := n.OpenWindow(context.Background())
	bctx := WithClock(ctx)
	tag := transport.ScopedWindowTag("", 0, "ring")

	// a -> b -> c: each hop relays after receiving, so virtual time adds up
	// along the chain while wall-clock time stays at memory speed.
	if err := conns["a"].Send(ctx, "b", tag, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["b"].Recv(bctx, "a", tag); err != nil {
		t.Fatal(err)
	}
	if err := conns["b"].Send(bctx, "c", tag, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["c"].Recv(ctx, "b", tag); err != nil {
		t.Fatal(err)
	}

	lat, rounds := EndWindow(ctx)
	if lat != 2*hop {
		t.Errorf("chain latency = %v, want %v", lat, 2*hop)
	}
	if rounds != 2 {
		t.Errorf("chain rounds = %d, want 2", rounds)
	}
}

func TestSerializationDelay(t *testing.T) {
	// 1 kB/s link: a message of wireSize w takes w ms of serialization on
	// top of zero propagation.
	n, conns := wire(t, fixedTopo(0, 1000), 1, "a", "b")
	ctx := n.OpenWindow(context.Background())
	tag := transport.ScopedWindowTag("", 3, "bulk")
	payload := make([]byte, 100)
	if err := conns["a"].Send(ctx, "b", tag, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["b"].Recv(ctx, "a", tag); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(transport.WireSize("a", "b", tag, payload)) * time.Millisecond
	if lat, _ := EndWindow(ctx); lat != want {
		t.Errorf("serialization latency = %v, want %v", lat, want)
	}
}

func TestWindowsAreIndependentLanes(t *testing.T) {
	const hop = 5 * time.Millisecond
	n, conns := wire(t, fixedTopo(hop, 0), 1, "a", "b")
	var ctxs []context.Context
	for w := 0; w < 3; w++ {
		ctx := n.OpenWindow(context.Background())
		ctxs = append(ctxs, ctx)
		if err := conns["a"].Send(ctx, "b", transport.ScopedWindowTag("", w, "t"), []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := conns["b"].Recv(ctx, "a", transport.ScopedWindowTag("", w, "t")); err != nil {
			t.Fatal(err)
		}
	}
	for w, ctx := range ctxs {
		if lat, rounds := EndWindow(ctx); lat != hop || rounds != 1 {
			t.Errorf("window %d: latency %v rounds %d, want %v/1 (state leaked across windows)", w, lat, rounds, hop)
		}
	}
}

// TestSessionTagsUnmodeled: traffic sent under a context without a window
// (the key exchange, a standalone party's) carries no delivery metadata, so
// receiving it advances neither the receiver's clock nor its window.
func TestSessionTagsUnmodeled(t *testing.T) {
	n, conns := wire(t, fixedTopo(time.Second, 0), 1, "a", "b")
	ctx := n.OpenWindow(context.Background())
	bctx := WithClock(ctx)
	for _, tag := range []string{"keys/paillier", transport.ScopedWindowTag("", 0, "t")} {
		if err := conns["a"].Send(context.Background(), "b", tag, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := conns["b"].Recv(bctx, "a", tag); err != nil {
			t.Fatal(err)
		}
	}
	if lat, depth := bctx.Value(clockKey{}).(*clock).snapshot(); lat != 0 || depth != 0 {
		t.Errorf("windowless traffic advanced the receiver's clock: %v/%d", lat, depth)
	}
	if lat, rounds := EndWindow(ctx); lat != 0 || rounds != 0 {
		t.Errorf("windowless traffic advanced the window: %v/%d", lat, rounds)
	}
}

func TestFIFODeliveryOrder(t *testing.T) {
	// High jitter could reorder same-stream deliveries; the FIFO floor must
	// keep them monotone, matching the mailbox's queue semantics.
	topo := Topology{Name: "jittery", Base: LinkParams{Latency: 10 * time.Millisecond, Jitter: 9 * time.Millisecond}}
	n, conns := wire(t, topo, 42, "a", "b")
	ctx := n.OpenWindow(context.Background())
	bctx := WithClock(ctx)
	tag := transport.ScopedWindowTag("", 0, "seq")
	var prev time.Duration
	for i := 0; i < 50; i++ {
		if err := conns["a"].Send(ctx, "b", tag, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := conns["b"].Recv(bctx, "a", tag); err != nil {
			t.Fatal(err)
		}
		lat, _ := bctx.Value(clockKey{}).(*clock).snapshot()
		if lat < prev {
			t.Fatalf("delivery %d regressed virtual time: %v < %v", i, lat, prev)
		}
		prev = lat
	}
}

func TestSeededDrawsAreDeterministic(t *testing.T) {
	run := func() (time.Duration, int) {
		topo, err := Preset(TopologyCellular)
		if err != nil {
			t.Fatal(err)
		}
		n, conns := wire(t, topo, 99, "a", "b", "c")
		var ctx context.Context
		for w := 0; w < 2; w++ {
			ctx = n.OpenWindow(context.Background())
			bctx := WithClock(ctx)
			for i := 0; i < 10; i++ {
				tag := transport.ScopedWindowTag("", w, "t")
				if err := conns["a"].Send(ctx, "b", tag, make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
				if _, err := conns["b"].Recv(bctx, "a", tag); err != nil {
					t.Fatal(err)
				}
				if err := conns["b"].Send(bctx, "c", tag, make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
				if _, err := conns["c"].Recv(ctx, "b", tag); err != nil {
					t.Fatal(err)
				}
			}
		}
		return EndWindow(ctx) // window 1's
	}
	lat1, r1 := run()
	lat2, r2 := run()
	if lat1 != lat2 || r1 != r2 {
		t.Errorf("re-run diverged: %v/%d vs %v/%d", lat1, r1, lat2, r2)
	}
	// Ten independent a→b→c relays: the dependency chain stays 2 deep (a
	// never waits on anyone), and the critical path is bounded by the last
	// relay's two hops plus queueing.
	if lat1 == 0 || r1 != 2 {
		t.Errorf("implausible stats: latency %v rounds %d (want 2 rounds)", lat1, r1)
	}
}

func TestBackToBackSendsQueueOnBandwidth(t *testing.T) {
	// 1 kB/s, zero propagation: five equal frames sent back to back must
	// serialize one after another, so the last delivery lands at 5× the
	// per-frame transmission time.
	n, conns := wire(t, fixedTopo(0, 1000), 1, "a", "b")
	ctx := n.OpenWindow(context.Background())
	tag := transport.ScopedWindowTag("", 0, "bulk")
	payload := make([]byte, 100)
	for i := 0; i < 5; i++ {
		if err := conns["a"].Send(ctx, "b", tag, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := conns["b"].Recv(ctx, "a", tag); err != nil {
			t.Fatal(err)
		}
	}
	perFrame := time.Duration(transport.WireSize("a", "b", tag, payload)) * time.Millisecond
	if lat, _ := EndWindow(ctx); lat != 5*perFrame {
		t.Errorf("queued latency = %v, want %v", lat, 5*perFrame)
	}
}

func TestLossChargesRetransmissions(t *testing.T) {
	lossy := Topology{Name: "drop", Base: LinkParams{Latency: time.Millisecond, Loss: 0.95, RTO: time.Second}}
	n, err := New(lossy, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := lossy.Base.withDefaults()
	// With 95% loss nearly every message pays at least one RTO; across 20
	// identities at least one must (and none may exceed the retransmit cap).
	var penalized bool
	for seq := int64(0); seq < 20; seq++ {
		occ, pipe := n.price(p, "a", "b", "w0/t", seq, 10)
		if occ > time.Duration(maxRetransmits)*p.RTO || pipe != p.Latency {
			t.Fatalf("price %v/%v out of model bounds", occ, pipe)
		}
		if occ >= p.RTO {
			penalized = true
		}
		occ2, pipe2 := n.price(p, "a", "b", "w0/t", seq, 10)
		if occ2 != occ || pipe2 != pipe {
			t.Fatalf("price draw not deterministic: %v/%v vs %v/%v", occ2, pipe2, occ, pipe)
		}
	}
	if !penalized {
		t.Error("95% loss never charged an RTO across 20 messages")
	}
}

func TestForkBranchIsolation(t *testing.T) {
	const hop = 10 * time.Millisecond
	n, conns := wire(t, fixedTopo(hop, 0), 1, "hub", "x", "y")
	ctx := n.OpenWindow(context.Background())
	tagReq := transport.ScopedWindowTag("", 0, "req")
	tagRep := transport.ScopedWindowTag("", 0, "rep")

	// x messages the hub directly; y's request is relayed through x, so it
	// reaches the hub one hop later. The hub answers y first, then x, each
	// through its own branch. x's reply must be timestamped off only x's
	// request — 2 hops end to end — not off y's later one, which a clock
	// shared by both exchanges would have advanced to 2 hops first.
	if err := conns["x"].Send(ctx, "hub", tagReq, []byte{1}); err != nil {
		t.Fatal(err)
	}
	xctx := WithClock(ctx)
	if err := conns["y"].Send(ctx, "x", tagReq, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["x"].Recv(xctx, "y", tagReq); err != nil {
		t.Fatal(err)
	}
	relayed := transport.ScopedWindowTag("", 0, "relay")
	if err := conns["x"].Send(xctx, "hub", relayed, []byte{2}); err != nil {
		t.Fatal(err)
	}
	forked := WithClock(ctx)
	for _, ex := range []struct {
		peer, from, tag string
		want            time.Duration
	}{{"y", "x", relayed, 3 * hop}, {"x", "x", tagReq, 2 * hop}} {
		bctx := Branch(forked)
		if _, err := conns["hub"].Recv(bctx, ex.from, ex.tag); err != nil {
			t.Fatal(err)
		}
		if err := conns["hub"].Send(bctx, ex.peer, tagRep, []byte{3}); err != nil {
			t.Fatal(err)
		}
		pctx := WithClock(ctx)
		if _, err := conns[ex.peer].Recv(pctx, "hub", tagRep); err != nil {
			t.Fatal(err)
		}
		if got, _ := pctx.Value(clockKey{}).(*clock).snapshot(); got != ex.want {
			t.Errorf("reply to %s arrived at %v, want %v (branches leaked)", ex.peer, got, ex.want)
		}
	}
	if lat, rounds := EndWindow(ctx); lat != 3*hop || rounds != 3 {
		t.Errorf("window latency = %v rounds %d, want %v/3", lat, rounds, 3*hop)
	}
}

func TestBranchWithoutForkPassesThrough(t *testing.T) {
	ctx := context.Background()
	if got := Branch(ctx); got != ctx {
		t.Error("Branch invented a token on an unforked context")
	}
}

func TestSendFailureRetractsMeta(t *testing.T) {
	const hop = 10 * time.Millisecond
	n, conns := wire(t, fixedTopo(hop, 0), 1, "a", "b")
	ctx := n.OpenWindow(context.Background())
	tag := transport.ScopedWindowTag("", 0, "t")

	// Sending to an unknown party fails below the emulation layer; its
	// metadata must not linger and desynchronize the next delivery.
	if err := conns["a"].Send(ctx, "ghost", tag, []byte{1}); err == nil {
		t.Fatal("send to unknown party succeeded")
	}
	if err := conns["a"].Send(ctx, "b", tag, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["b"].Recv(ctx, "a", tag); err != nil {
		t.Fatal(err)
	}
	if lat, _ := EndWindow(ctx); lat != hop {
		t.Errorf("latency = %v, want %v (stale meta from failed send?)", lat, hop)
	}
}
