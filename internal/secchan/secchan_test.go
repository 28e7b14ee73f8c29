package secchan

import (
	"bytes"
	"context"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/transport"
)

var errNoKey = errors.New("no key exchanged")

// keySources gives each listed party a key source over a fresh X25519 key,
// extracting as core.Party.PairKey does: HMAC-SHA256(salt, X25519(own, peer)).
func keySources(t *testing.T, ids ...string) map[string]func(string, []byte) ([]byte, error) {
	t.Helper()
	keys := map[string]*ecdh.PrivateKey{}
	for _, id := range ids {
		k, err := ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = k
	}
	src := map[string]func(string, []byte) ([]byte, error){}
	for _, id := range ids {
		src[id] = func(peer string, salt []byte) ([]byte, error) {
			pk, ok := keys[peer]
			if !ok {
				return nil, errNoKey
			}
			secret, err := keys[id].ECDH(pk.PublicKey())
			if err != nil {
				return nil, err
			}
			mac := hmac.New(sha256.New, salt)
			mac.Write(secret)
			return mac.Sum(nil), nil
		}
	}
	return src
}

// setupPair wires two secure endpoints over an in-memory bus.
func setupPair(t *testing.T) (*Conn, *Conn, *transport.Bus) {
	t.Helper()
	bus := transport.NewBus(nil)
	src := keySources(t, "a", "b")
	a := New(bus.MustRegister("a"), src["a"])
	b := New(bus.MustRegister("b"), src["b"])
	return a, b, bus
}

func TestSealedRoundTrip(t *testing.T) {
	a, b, _ := setupPair(t)
	ctx := context.Background()

	msg := []byte("private net energy: -1.25 kWh")
	if err := a.Send(ctx, "b", "window/1", msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx, "a", "window/1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
}

func TestBothDirections(t *testing.T) {
	a, b, _ := setupPair(t)
	ctx := context.Background()
	if err := a.Send(ctx, "b", "x", []byte("to b")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(ctx, "a", "y", []byte("to a")); err != nil {
		t.Fatal(err)
	}
	gb, err := b.Recv(ctx, "a", "x")
	if err != nil {
		t.Fatal(err)
	}
	ga, err := a.Recv(ctx, "b", "y")
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != "to b" || string(ga) != "to a" {
		t.Errorf("got %q / %q", gb, ga)
	}
}

func TestCiphertextOnWire(t *testing.T) {
	// Inspect the raw bus traffic: plaintext must not appear.
	bus := transport.NewBus(nil)
	src := keySources(t, "a", "b")

	rawB := bus.MustRegister("b")
	a := New(bus.MustRegister("a"), src["a"])
	ctx := context.Background()

	secret := []byte("household load profile 07:00-08:00")
	if err := a.Send(ctx, "b", "t", secret); err != nil {
		t.Fatal(err)
	}
	raw, err := rawB.Recv(ctx, "a", "t")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Error("plaintext visible on the wire")
	}
	if len(raw) <= len(secret) {
		t.Error("sealed message should carry nonce+tag overhead")
	}
}

func TestTamperedMessageRejected(t *testing.T) {
	// Relay through a raw endpoint that flips a bit.
	bus := transport.NewBus(nil)
	src := keySources(t, "a", "b")

	innerA := transport.NewFaultConn(bus.MustRegister("a"))
	a := New(innerA, src["a"])
	b := New(bus.MustRegister("b"), src["b"])
	ctx := context.Background()

	innerA.CorruptNext("t", 1)
	if err := a.Send(ctx, "b", "t", []byte("integrity matters")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx, "a", "t"); err == nil {
		t.Error("tampered message accepted")
	}
}

func TestWrongTagRejected(t *testing.T) {
	// AAD binds the tag: delivering a ciphertext under a different tag via
	// a raw relay must fail to authenticate.
	bus := transport.NewBus(nil)
	src := keySources(t, "a", "b")

	rawA := bus.MustRegister("a")
	a := New(rawA, src["a"])
	rawB := bus.MustRegister("b")
	b := New(rawB, src["b"])
	ctx := context.Background()

	if err := a.Send(ctx, "b", "tag1", []byte("bound")); err != nil {
		t.Fatal(err)
	}
	sealed, err := rawB.Recv(ctx, "a", "tag1")
	if err != nil {
		t.Fatal(err)
	}
	// Re-inject under a different tag.
	rawReinject := bus.MustRegister("a2")
	_ = rawReinject
	if err := rawA.Send(ctx, "b", "tag2", sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx, "a", "tag2"); err == nil {
		t.Error("cross-tag replay accepted")
	}
}

func TestUnknownPeer(t *testing.T) {
	bus := transport.NewBus(nil)
	a := New(bus.MustRegister("a"), keySources(t, "a")["a"])
	bus.MustRegister("stranger")
	if err := a.Send(context.Background(), "stranger", "t", []byte("x")); !errors.Is(err, errNoKey) {
		t.Errorf("send to a peer the key source does not know: %v, want the source's error", err)
	}
}

func TestNonceUniqueness(t *testing.T) {
	// Two seals of the same message must differ on the wire.
	bus := transport.NewBus(nil)
	src := keySources(t, "a", "b")
	rawB := bus.MustRegister("b")
	a := New(bus.MustRegister("a"), src["a"])
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if err := a.Send(ctx, "b", "t", []byte("same")); err != nil {
			t.Fatal(err)
		}
	}
	m1, _ := rawB.Recv(ctx, "a", "t")
	m2, _ := rawB.Recv(ctx, "a", "t")
	if bytes.Equal(m1, m2) {
		t.Error("two seals of the same plaintext are identical")
	}
}

func TestOverTCP(t *testing.T) {
	src := keySources(t, "a", "b")

	nodeA, err := transport.ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := transport.ListenTCP("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	nodeA.SetPeer("b", nodeB.Addr())

	a := New(nodeA, src["a"])
	b := New(nodeB, src["b"])

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Send(ctx, "b", "enc", []byte("tcp+aead")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx, "a", "enc")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tcp+aead" {
		t.Errorf("got %q", got)
	}
}
