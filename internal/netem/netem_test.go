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
	ctx := context.Background()
	tag := transport.WindowTag(0, "ring")

	// a -> b -> c: each hop relays after receiving, so virtual time adds up
	// along the chain while wall-clock time stays at memory speed.
	if err := conns["a"].Send(ctx, "b", tag, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["b"].Recv(ctx, "a", tag); err != nil {
		t.Fatal(err)
	}
	if err := conns["b"].Send(ctx, "c", tag, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["c"].Recv(ctx, "b", tag); err != nil {
		t.Fatal(err)
	}

	lat, rounds := n.WindowStats("", 0)
	if lat != 2*hop {
		t.Errorf("chain latency = %v, want %v", lat, 2*hop)
	}
	if rounds != 2 {
		t.Errorf("chain rounds = %d, want 2", rounds)
	}
	n.ReleaseWindow("", 0)
	if lat, rounds := n.WindowStats("", 0); lat != 0 || rounds != 0 {
		t.Errorf("released window still reports %v over %d rounds", lat, rounds)
	}
}

func TestSerializationDelay(t *testing.T) {
	// 1 kB/s link: a message of wireSize w takes w ms of serialization on
	// top of zero propagation.
	n, conns := wire(t, fixedTopo(0, 1000), 1, "a", "b")
	ctx := context.Background()
	tag := transport.WindowTag(3, "bulk")
	payload := make([]byte, 100)
	if err := conns["a"].Send(ctx, "b", tag, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["b"].Recv(ctx, "a", tag); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(transport.WireSize("a", "b", tag, payload)) * time.Millisecond
	if lat, _ := n.WindowStats("", 3); lat != want {
		t.Errorf("serialization latency = %v, want %v", lat, want)
	}
}

func TestWindowsAreIndependentLanes(t *testing.T) {
	const hop = 5 * time.Millisecond
	n, conns := wire(t, fixedTopo(hop, 0), 1, "a", "b")
	ctx := context.Background()
	for w := 0; w < 3; w++ {
		if err := conns["a"].Send(ctx, "b", transport.WindowTag(w, "t"), []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := conns["b"].Recv(ctx, "a", transport.WindowTag(w, "t")); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 3; w++ {
		if lat, rounds := n.WindowStats("", w); lat != hop || rounds != 1 {
			t.Errorf("window %d: latency %v rounds %d, want %v/1 (lanes leaked across windows)", w, lat, rounds, hop)
		}
	}
}

func TestSessionTagsUnmodeled(t *testing.T) {
	n, conns := wire(t, fixedTopo(time.Second, 0), 1, "a", "b")
	ctx := context.Background()
	if err := conns["a"].Send(ctx, "b", "keys/paillier", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conns["b"].Recv(ctx, "a", "keys/paillier"); err != nil {
		t.Fatal(err)
	}
	if lat, rounds := n.WindowStats("", 0); lat != 0 || rounds != 0 {
		t.Errorf("session traffic advanced the virtual clock: %v/%d", lat, rounds)
	}
}

func TestFIFODeliveryOrder(t *testing.T) {
	// High jitter could reorder same-stream deliveries; the FIFO floor must
	// keep them monotone, matching the mailbox's queue semantics.
	topo := Topology{Name: "jittery", Base: LinkParams{Latency: 10 * time.Millisecond, Jitter: 9 * time.Millisecond}}
	n, conns := wire(t, topo, 42, "a", "b")
	ctx := context.Background()
	tag := transport.WindowTag(0, "seq")
	var prev time.Duration
	for i := 0; i < 50; i++ {
		if err := conns["a"].Send(ctx, "b", tag, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := conns["b"].Recv(ctx, "a", tag); err != nil {
			t.Fatal(err)
		}
		lat, _ := n.WindowStats("", 0)
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
		ctx := context.Background()
		for w := 0; w < 2; w++ {
			for i := 0; i < 10; i++ {
				tag := transport.WindowTag(w, "t")
				if err := conns["a"].Send(ctx, "b", tag, make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
				if _, err := conns["b"].Recv(ctx, "a", tag); err != nil {
					t.Fatal(err)
				}
				if err := conns["b"].Send(ctx, "c", tag, make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
				if _, err := conns["c"].Recv(ctx, "b", tag); err != nil {
					t.Fatal(err)
				}
			}
		}
		lat, rounds := n.WindowStats("", 1)
		return lat, rounds
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
	ctx := context.Background()
	tag := transport.WindowTag(0, "bulk")
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
	if lat, _ := n.WindowStats("", 0); lat != 5*perFrame {
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
	ctx := context.Background()
	tagReq := transport.WindowTag(0, "req")
	tagRep := transport.WindowTag(0, "rep")

	// x and y both message the hub; the hub answers each through its own
	// branch. Each reply must be timestamped off only its own request —
	// 2 hops end to end — not off whichever other request happened to have
	// advanced the hub's shared lane first.
	if err := conns["x"].Send(ctx, "hub", tagReq, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := conns["y"].Send(ctx, "hub", tagReq, []byte{2}); err != nil {
		t.Fatal(err)
	}
	forked := conns["hub"].ForkLane(ctx, "", 0)
	for _, peer := range []string{"x", "y"} {
		bctx := Branch(forked)
		if _, err := conns["hub"].Recv(bctx, peer, tagReq); err != nil {
			t.Fatal(err)
		}
		if err := conns["hub"].Send(bctx, peer, tagRep, []byte{3}); err != nil {
			t.Fatal(err)
		}
		if _, err := conns[peer].Recv(ctx, "hub", tagRep); err != nil {
			t.Fatal(err)
		}
	}
	if lat, rounds := n.WindowStats("", 0); lat != 2*hop || rounds != 2 {
		t.Errorf("request/reply latency = %v rounds %d, want %v/2 (branches leaked)", lat, rounds, 2*hop)
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
	ctx := context.Background()
	tag := transport.WindowTag(0, "t")

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
	if lat, _ := n.WindowStats("", 0); lat != hop {
		t.Errorf("latency = %v, want %v (stale meta from failed send?)", lat, hop)
	}
}
