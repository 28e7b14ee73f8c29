// Package secchan implements the secure pairwise channels the paper assumes
// ("all the messages in the framework are assumed to be transmitted in a
// secure channel", Section II-B).
//
// A channel holds no key of its own. For an (i, j) pair it asks its key
// source for HKDF-Extract over the pair's Diffie–Hellman secret, salted with
// the sorted party identifiers so both ends agree — in a deployment the
// source is core.Party.PairKey, over the X25519 scalar whose public half
// ExchangeKeys shipped with the Paillier key — and expands it into an
// AES-256-GCM key. Every payload is then sealed under a random nonce, with the
// (from, to, tag) triple bound as additional authenticated data so messages
// cannot be replayed across conversations.
package secchan

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"github.com/pem-go/pem/internal/transport"
)

// ErrDecrypt reports a sealed payload that failed to authenticate.
var ErrDecrypt = errors.New("secchan: message authentication failed")

// Conn wraps a transport.Conn, sealing every payload end-to-end.
type Conn struct {
	inner   transport.Conn
	extract func(peer string, salt []byte) ([]byte, error)

	mu    sync.Mutex
	aeads map[string]cipher.AEAD // peer -> sealed channel
}

var _ transport.Conn = (*Conn)(nil)

// New wraps inner, keying the channel with each peer from extract(peer,
// salt): HKDF-Extract(salt, secret), the secret one the peer's end holds too.
func New(inner transport.Conn, extract func(peer string, salt []byte) ([]byte, error)) *Conn {
	return &Conn{
		inner:   inner,
		extract: extract,
		aeads:   make(map[string]cipher.AEAD),
	}
}

// Party implements transport.Conn.
func (c *Conn) Party() string { return c.inner.Party() }

// aead returns (building if needed) the AEAD for a peer.
func (c *Conn) aead(peer string) (cipher.AEAD, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.aeads[peer]; ok {
		return a, nil
	}
	salt := sha256.Sum256([]byte("pem/secchan/v1|" + min(c.Party(), peer) + "|" + max(c.Party(), peer)))
	prk, err := c.extract(peer, salt[:])
	if err != nil {
		return nil, fmt.Errorf("secchan: channel key for %q: %w", peer, err)
	}
	// HKDF-Expand(prk, info, 32): one block suffices for 32 bytes.
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte("pem/secchan/aes256gcm"))
	exp.Write([]byte{1})
	block, err := aes.NewCipher(exp.Sum(nil))
	if err != nil {
		return nil, fmt.Errorf("secchan: cipher: %w", err)
	}
	a, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secchan: gcm: %w", err)
	}
	c.aeads[peer] = a
	return a, nil
}

// Send seals payload and forwards it.
func (c *Conn) Send(ctx context.Context, to, tag string, payload []byte) error {
	a, err := c.aead(to)
	if err != nil {
		return err
	}
	nonce := make([]byte, a.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("secchan: nonce: %w", err)
	}
	aad := aadFor(c.Party(), to, tag)
	sealed := a.Seal(nonce, nonce, payload, aad)
	return c.inner.Send(ctx, to, tag, sealed)
}

// Recv receives and opens a sealed payload.
func (c *Conn) Recv(ctx context.Context, from, tag string) ([]byte, error) {
	sealed, err := c.inner.Recv(ctx, from, tag)
	if err != nil {
		return nil, err
	}
	return c.open(from, tag, sealed)
}

// RecvAny receives the first sealed payload to arrive from any of the
// listed peers and opens it under that peer's channel.
func (c *Conn) RecvAny(ctx context.Context, tag string, froms []string) (string, []byte, error) {
	from, sealed, err := c.inner.RecvAny(ctx, tag, froms)
	if err != nil {
		return "", nil, err
	}
	plain, err := c.open(from, tag, sealed)
	if err != nil {
		return "", nil, err
	}
	return from, plain, nil
}

// open unseals a received payload under the channel with from.
func (c *Conn) open(from, tag string, sealed []byte) ([]byte, error) {
	a, err := c.aead(from)
	if err != nil {
		return nil, err
	}
	ns := a.NonceSize()
	if len(sealed) < ns {
		return nil, ErrDecrypt
	}
	aad := aadFor(from, c.Party(), tag)
	plain, err := a.Open(nil, sealed[:ns], sealed[ns:], aad)
	if err != nil {
		return nil, fmt.Errorf("%w (from %q tag %q)", ErrDecrypt, from, tag)
	}
	return plain, nil
}

// aadFor binds direction and tag into the AEAD.
func aadFor(from, to, tag string) []byte {
	return []byte(from + "\x00" + to + "\x00" + tag)
}

// Close implements transport.Conn.
func (c *Conn) Close() error { return c.inner.Close() }
