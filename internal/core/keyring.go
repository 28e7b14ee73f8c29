package core

import (
	"crypto/ecdh"
	"io"
	"sync"

	"github.com/pem-go/pem/internal/paillier"
)

// KeyRing holds the Paillier key pair and X25519 scalar of every home a
// simulation has keyed, by agent ID. In the paper an agent generates its keys
// once (Protocol 1 line 2); what changes from coalition to coalition is the
// directory of public keys. The ring is that "once": engines ask it instead of
// generating keys, so a home that survives an epoch boundary keeps its pair —
// and with it the comb table and blinding-factor stock that hang off the
// public key — while only joiners cost a key generation. An engine given no
// ring makes a private one (see Resources), which derives the same keys.
//
// With Config.Seed set a home's key is a pure function of (seed, agent ID,
// KeyBits) — independent of when the home was first keyed and of process
// history, so a resumed simulation re-derives the keys a killed one held.
// Unseeded rings draw from crypto/rand. Safe for concurrent use.
type KeyRing struct {
	cfg Config // Seed and KeyBits only

	mu   sync.Mutex
	keys map[string]*ringKey
}

// ringKey generates its pair once, however many engines ask at a time.
type ringKey struct {
	once   sync.Once
	key    *paillier.PrivateKey
	scalar [32]byte // X25519
	err    error
}

// NewKeyRing returns an empty ring generating cfg.KeyBits keys, seeded by
// cfg.Seed.
func NewKeyRing(cfg Config) *KeyRing {
	return &KeyRing{cfg: cfg.withDefaults(), keys: make(map[string]*ringKey)}
}

// key returns id's key pair, generating it on first request, and with withDH
// its X25519 key. The scalar is read whole: ecdh's GenerateKey may skip a byte.
func (r *KeyRing) key(id string, withDH bool) (*paillier.PrivateKey, *ecdh.PrivateKey, error) {
	r.mu.Lock()
	k := r.keys[id]
	if k == nil {
		k = new(ringKey)
		r.keys[id] = k
	}
	r.mu.Unlock()
	k.once.Do(func() {
		if k.key, k.err = paillier.GenerateKey(partyRandom(r.cfg, id, "keygen"), r.cfg.KeyBits); k.err == nil {
			_, k.err = io.ReadFull(partyRandom(r.cfg, id, "x25519"), k.scalar[:])
		}
	})
	if k.err != nil || !withDH {
		return k.key, nil, k.err
	}
	dh, err := ecdh.X25519().NewPrivateKey(k.scalar[:])
	return k.key, dh, err
}

// Evict drops the given homes' keys and zeroes their private halves: a
// departed or failed home's key must not outlive its membership. The homes
// must no longer belong to a running engine. Unknown IDs are ignored.
func (r *KeyRing) Evict(ids ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		if k := r.keys[id]; k != nil && k.key != nil {
			k.key.Wipe()
			clear(k.scalar[:])
		}
		delete(r.keys, id)
	}
}

// Holds reports whether the ring currently holds a key pair for id.
func (r *KeyRing) Holds(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.keys[id] != nil
}
