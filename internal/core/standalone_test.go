package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/transport"
)

func TestStandaloneValidation(t *testing.T) {
	bus := transport.NewBus(nil)
	conn := bus.MustRegister("x")
	cfg := testConfig(1)

	if _, err := NewStandaloneParty(cfg, market.Agent{ID: "x", K: 10, Epsilon: 0.5}, nil); err == nil {
		t.Error("nil conn accepted")
	}
	if _, err := NewStandaloneParty(cfg, market.Agent{ID: "y", K: 10, Epsilon: 0.5}, conn); err == nil {
		t.Error("mismatched transport party accepted")
	}
	p, err := NewStandaloneParty(cfg, market.Agent{ID: "x", K: 10, Epsilon: 0.5}, conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunTradingWindow(context.Background(), 0, market.WindowInput{}); err == nil {
		t.Error("window without key exchange accepted")
	}
	if _, err := p.RunTradingWindow(context.Background(), -1, market.WindowInput{}); err == nil || !strings.Contains(err.Error(), "negative window") {
		t.Errorf("negative window: err = %v, want refusal", err)
	}
}

// TestExchangeKeysRefusals plays peer b of a key exchange by hand, sending
// party a one crafted frame. A roster naming b twice, a frame too short for
// the X25519 key, a frame without a Paillier key and a low-order X25519 key
// must each fail at once with a *peerError naming b — not at the deadline —
// and leave a holding no key and no mask seed for b.
func TestExchangeKeysRefusals(t *testing.T) {
	cfg := testConfig(3)
	cfg.CryptoBackend = BackendHybrid
	agents := testAgents(2)
	b, err := NewStandaloneParty(cfg, agents[1], transport.NewBus(nil).MustRegister(agents[1].ID))
	if err != nil {
		t.Fatal(err)
	}
	paillierKey, err := b.key.PublicKey.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	x25519Key := b.dh.PublicKey().Bytes()
	frame := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	a0, a1 := agents[0].ID, agents[1].ID

	for _, tc := range []struct {
		name  string
		peers []string
		frame []byte // what b sends a
		ok    bool
	}{
		{"valid", []string{a0, a1}, frame(paillierKey, x25519Key), true},
		{"duplicate peer", []string{a0, a1, a1}, frame(paillierKey, x25519Key), false},
		{"short frame", []string{a0, a1}, x25519Key[:31], false},
		{"no paillier key", []string{a0, a1}, x25519Key, false},
		{"low-order key", []string{a0, a1}, frame(paillierKey, make([]byte, 32)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := transport.NewBus(nil)
			a, err := NewStandaloneParty(cfg, agents[0], bus.MustRegister(a0))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			ctx, cancel := context.WithTimeout(t.Context(), 2*time.Second)
			defer cancel()
			if err := bus.MustRegister(a1).Send(ctx, a0, keyExchangeTag, tc.frame); err != nil {
				t.Fatal(err)
			}
			err = a.ExchangeKeys(ctx, tc.peers)
			seed, hasSeed := a.maskSeeds[a1]
			if tc.ok {
				want, werr := maskSeed(b.dh, a.dh.PublicKey(), "", a1, a0)
				if err != nil || werr != nil || !bytes.Equal(seed, want) || a.dir[a1] == nil {
					t.Fatalf("err = %v, %v; seed %x, b derives %x", err, werr, seed, want)
				}
				return
			}
			var pe *peerError
			if !errors.As(err, &pe) || pe.peer != a1 || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want a *peerError naming %s", err, a1)
			}
			if hasSeed || a.dir[a1] != nil {
				t.Errorf("refused peer left key %v, seed %x", a.dir[a1], seed)
			}
		})
	}
}

// TestStandaloneSinkHoldsNoWindows: standalone parties never open a window
// on their nodes' sink, so trading windows leaves it holding none — their
// traffic lands in the totals only, however many windows they trade.
func TestStandaloneSinkHoldsNoWindows(t *testing.T) {
	sink := transport.NewMetrics()
	agents := testAgents(4)
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.2, Load: 0.1},
	}
	nodes := make([]*transport.TCPNode, len(agents))
	parties := make([]*Party, len(agents))
	peers := make([]string, len(agents))
	for i, a := range agents {
		node, err := transport.ListenTCP(a.ID, "127.0.0.1:0", nil, sink)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		p, err := NewStandaloneParty(testConfig(5), a, node)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		nodes[i], parties[i], peers[i] = node, p, a.ID
	}
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].SetPeer(peers[j], nodes[j].Addr())
			}
		}
	}

	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	errs := make([]error, len(parties))
	var wg sync.WaitGroup
	for i, p := range parties {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.ExchangeKeys(ctx, peers)
			for w := 0; w < 3 && errs[i] == nil; w++ {
				_, errs[i] = p.RunTradingWindow(ctx, w, inputs[i])
			}
			if errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n := sink.LiveWindows(); n != 0 {
		t.Errorf("sink holds %d windows after 3 standalone windows, want 0", n)
	}
	if sink.TotalBytes() <= 0 || sink.TotalMessages() <= 0 {
		t.Errorf("totals %d bytes over %d messages, want both > 0", sink.TotalBytes(), sink.TotalMessages())
	}
}
