package core

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/secchan"
	"github.com/pem-go/pem/internal/transport"
)

// TestMaskWordABI pins the hybrid backend's mask derivation and share
// frames (ROADMAP correctness item (b)): both endpoints of a pair — in a
// deployment, two processes — must derive the same words from the same
// seed and tag and lay shares out the same way, so a drift here is a wire
// break. Goldens: SHA-256(seed ‖ tag)[:16] by hand, big-endian words.
func TestMaskWordABI(t *testing.T) {
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i)
	}
	r := &windowRun{Party: &Party{maskSeeds: map[string][]byte{"peer": seed}}}
	m0, m1, err := r.maskWords("peer", "c0/w12/pd/ring")
	if err != nil {
		t.Fatal(err)
	}
	if m0 != 0xe05c79f10c417826 || m1 != 0x428829e4e597e819 {
		t.Fatalf("maskWords = %#x, %#x", m0, m1)
	}

	mask := maskedShare{m0, m1}
	for _, g := range []struct {
		name  string
		shape shareShape
		add   maskedShare // folded into the mask before framing
		want  string
	}{
		{"word", shapeWord, maskedShare{1, 0}, "e05c79f10c417827"},
		{"pair", shapePair, maskedShare{1, 2}, "e05c79f10c417827428829e4e597e81b"},
		{"wide", shapeWide, maskedShare{0, 2}, "e05c79f10c417826428829e4e597e81b"},
		// The low word overflows: one 128-bit integer carries into the high
		// word, Protocol 3's independent pair does not.
		{"wide carry", shapeWide, maskedShare{0, ^m1 + 1}, "e05c79f10c4178270000000000000000"},
		{"pair no carry", shapePair, maskedShare{0, ^m1 + 1}, "e05c79f10c4178260000000000000000"},
	} {
		frame := encodeShare(mask.add(g.add, g.shape), g.shape.words)
		if got := hex.EncodeToString(frame); got != g.want {
			t.Errorf("%s frame = %s, want %s", g.name, got, g.want)
		}
		back, err := decodeShare(frame, g.shape.words, "peer", "t")
		if err != nil || !bytes.Equal(encodeShare(back, g.shape.words), frame) {
			t.Errorf("%s frame does not round-trip: %v", g.name, err)
		}
	}
}

// TestMaskSeedABI pins the pairwise seed derivation that feeds maskWords:
// the two parties of a pair — in a deployment, two processes — must hash the
// same bytes, so a drift here is a wire break. The scalars are RFC 7748
// §6.1's, so the shared secret K is that vector's, and the goldens are
// SHA-256("pem/maskseed/v1" ‖ len ‖ scope ‖ len ‖ "alice" ‖ len ‖ "bob" ‖ K),
// lengths 4-byte big-endian, by hand. Then the one path: a seeded hybrid
// engine's parties and four seeded standalone parties that ran ExchangeKeys
// hold byte-identical seeds.
func TestMaskSeedABI(t *testing.T) {
	key := func(scalar string) *ecdh.PrivateKey {
		b, err := hex.DecodeString(scalar)
		if err != nil {
			t.Fatal(err)
		}
		k, err := ecdh.X25519().NewPrivateKey(b)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	alice := key("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
	bob := key("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
	if got := hex.EncodeToString(bob.PublicKey().Bytes()); got != "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f" {
		t.Fatalf("bob's public key = %s", got)
	}
	for _, g := range []struct{ scope, want string }{
		{"e02-c03", "0c54c42fd31628bf0487a1363688b78c29fa4947dd72039da01c686382c74602"},
		{"", "8d4418995f5d8df7e49f932c2ca469424dcbece0dbe3a6e1eccda1c40ab1f758"},
	} {
		ab, errA := maskSeed(alice, bob.PublicKey(), g.scope, "alice", "bob")
		ba, errB := maskSeed(bob, alice.PublicKey(), g.scope, "bob", "alice")
		if err := errors.Join(errA, errB); err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(ab) != g.want || !bytes.Equal(ab, ba) {
			t.Errorf("scope %q: alice derives %x, bob %x, want %s", g.scope, ab, ba, g.want)
		}
	}

	cfg := testConfig(31)
	cfg.CryptoBackend = BackendHybrid
	agents := testAgents(4)
	eng, err := NewEngine(cfg, agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bus := transport.NewBus(nil)
	ids := make([]string, len(agents))
	solo := make([]*Party, len(agents))
	for i, a := range agents {
		if solo[i], err = NewStandaloneParty(cfg, a, bus.MustRegister(a.ID)); err != nil {
			t.Fatal(err)
		}
		defer solo[i].Close()
		ids[i] = a.ID
	}
	errs := make([]error, len(solo))
	var wg sync.WaitGroup
	for i, p := range solo {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.ExchangeKeys(t.Context(), ids)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, p := range eng.Parties() {
		if len(p.maskSeeds) != len(agents)-1 || !maps.EqualFunc(p.maskSeeds, solo[i].maskSeeds, bytes.Equal) {
			t.Errorf("%s: engine seeds %x, standalone %x", p.ID(), p.maskSeeds, solo[i].maskSeeds)
		}
	}
}

// TestChannelKeyABI pins the channel key secchan seals a pair's frames under,
// keyed by the scalar ExchangeKeys agreed (PairKey): HKDF-SHA256 with salt
// SHA-256("pem/secchan/v1|" ‖ min(a,b) ‖ "|" ‖ max(a,b)), IKM X25519(a, B)
// and info "pem/secchan/aes256gcm". The scalars are RFC 7748 §6.1's; the
// golden was computed by hand (Python hmac/hashlib) and is the key secchan
// derived for the same two scalars when it held X25519 identities of its own,
// so a sealed frame keeps its bytes. A frame alice seals opens under the
// golden key, bob's reply opens at alice, and the key is not the pair's mask
// seed: one secret, two labels.
func TestChannelKeyABI(t *testing.T) {
	key := func(scalar string) *ecdh.PrivateKey {
		b, err := hex.DecodeString(scalar)
		if err != nil {
			t.Fatal(err)
		}
		k, err := ecdh.X25519().NewPrivateKey(b)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	alice := key("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
	bob := key("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
	golden, _ := hex.DecodeString("5cedc426a0c5ae9b0434d92a57772491558cbee40bb0b759b35d386fc355049f")
	party := func(id string, dh *ecdh.PrivateKey, peer string, pub *ecdh.PublicKey) *Party {
		return &Party{agent: market.Agent{ID: id}, dh: dh, peerDH: map[string]*ecdh.PublicKey{peer: pub}}
	}
	pa := party("alice", alice, "bob", bob.PublicKey())
	pb := party("bob", bob, "alice", alice.PublicKey())

	bus := transport.NewBus(nil)
	rawA, rawB := bus.MustRegister("alice"), bus.MustRegister("bob")
	if err := secchan.New(rawA, pa.PairKey).Send(t.Context(), "bob", "w0/role", []byte("seller")); err != nil {
		t.Fatal(err)
	}
	sealed, err := rawB.Recv(t.Context(), "alice", "w0/role")
	if err != nil {
		t.Fatal(err)
	}
	block, err := aes.NewCipher(golden)
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	ns := gcm.NonceSize()
	if plain, err := gcm.Open(nil, sealed[:ns], sealed[ns:], []byte("alice\x00bob\x00w0/role")); err != nil || string(plain) != "seller" {
		t.Errorf("alice's frame under the golden key: %q, %v", plain, err)
	}

	if err := secchan.New(rawB, pb.PairKey).Send(t.Context(), "alice", "w0/role", []byte("buyer")); err != nil {
		t.Fatal(err)
	}
	if got, err := secchan.New(rawA, pa.PairKey).Recv(t.Context(), "bob", "w0/role"); err != nil || string(got) != "buyer" {
		t.Errorf("bob's frame at alice: %q, %v", got, err)
	}
	if _, err := pa.PairKey("carol", nil); err == nil {
		t.Error("PairKey for a peer no exchange entered: want an error")
	}

	seed, err := maskSeed(alice, bob.PublicKey(), "", "alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(seed, golden) {
		t.Error("channel key equals the pair's mask seed")
	}
}

// p4Fixture is a general-market window whose Protocol 4 roles are known
// before it runs: sellers a00 and a01, buyers — the demand side — a02 and
// up.
type p4Fixture struct {
	eng     *Engine
	inputs  []market.WindowInput
	buyers  []string
	hs      *Party
	root    string
	foldTag string
	eb      *big.Int // Σ|sn_j| over the buyers, in µ-units
}

func newHybridP4Fixture(t *testing.T, seed int64, demand int, topo string) *p4Fixture {
	t.Helper()
	return newP4Fixture(t, BackendHybrid, seed, demand, topo)
}

func newP4Fixture(t *testing.T, backend string, seed int64, demand int, topo string) *p4Fixture {
	t.Helper()
	agents := testAgents(2 + demand)
	f := &p4Fixture{inputs: make([]market.WindowInput, len(agents)), eb: new(big.Int)}
	for i := range agents {
		if i < 2 {
			f.inputs[i] = market.WindowInput{Generation: 0.05 + 0.01*float64(i)}
			continue
		}
		f.inputs[i] = market.WindowInput{Load: 0.4 + 0.03*float64(i)}
		sn, err := fixed.FromFloat(f.inputs[i].NetEnergy())
		if err != nil {
			t.Fatal(err)
		}
		f.eb.Add(f.eb, big.NewInt(int64(sn.Abs())))
		f.buyers = append(f.buyers, agents[i].ID)
	}
	cfg := testConfig(seed)
	cfg.KeyBits, cfg.CryptoBackend, cfg.Aggregation = 512, backend, topo
	eng, err := NewEngine(cfg, agents)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	f.eng = eng
	sellers := []string{agents[0].ID, agents[1].ID}
	f.hs = eng.parties[publicCoin(0, "hs", sellers, f.buyers, len(sellers))]
	f.root = (&windowRun{Party: f.hs}).aggregationRoot(f.buyers)
	f.foldTag = transport.ScopedWindowTag("", 0, phaseFold)
	return f
}

// maskTotal is μ, as Hs derives it.
func (f *p4Fixture) maskTotal(t *testing.T) *big.Int {
	t.Helper()
	r := &windowRun{Party: f.hs}
	mu, err := r.maskTotal(f.buyers, f.foldTag, shapeWide)
	if err != nil {
		t.Fatal(err)
	}
	return new(big.Int).Set(r.wideInt(mu))
}

func (f *p4Fixture) run() (*WindowResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return f.eng.RunWindow(ctx, 0, f.inputs)
}

var two128 = new(big.Int).Lsh(big.NewInt(1), 128)

// TestHybridTotalIsRerandomised pins the root's own blinding factor: the
// total it broadcasts decrypts to E_b and is not the deterministic
// Enc(−μ)·(1+M·n) — whose randomness Hs knows, which would let Hs recover
// each member's reciprocal exponent, hence its share, from the masked
// product it decrypts anyway.
func TestHybridTotalIsRerandomised(t *testing.T) {
	for _, topo := range []string{AggregationRing, AggregationTree} {
		f := newHybridP4Fixture(t, 9300, 3, topo)
		var mu sync.Mutex
		var unmask, total paillier.Ciphertext
		rewriteFrames(f.eng, func(_, _, phase string, payload []byte) []byte {
			mu.Lock()
			defer mu.Unlock()
			var err error
			switch phase {
			case phaseUnmask:
				err = unmask.UnmarshalBinary(payload)
			case "pd/total":
				err = total.UnmarshalBinary(payload)
			}
			if err != nil {
				t.Error(err)
			}
			return payload
		})
		if _, err := f.run(); err != nil {
			t.Fatal(err)
		}
		pk := &f.hs.key.PublicKey
		if got, err := f.hs.key.Decrypt(&total); err != nil || got.Cmp(f.eb) != 0 {
			t.Fatalf("%s: broadcast total decrypts to %v (%v), want E_b = %v", topo, got, err, f.eb)
		}
		m := new(big.Int).Add(f.eb, f.maskTotal(t))
		bare, err := pk.AddPlain(&unmask, m.Mod(m, two128))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.hs.key.Decrypt(bare); err != nil || got.Cmp(f.eb) != 0 {
			t.Fatalf("%s: Enc(−μ)·(1+M·n) decrypts to %v (%v), want E_b = %v: the test's M is off", topo, got, err, f.eb)
		}
		if bare.C.Cmp(total.C) == 0 {
			t.Errorf("%s: the broadcast total is Enc(−μ)·(1+M·n): the root did not re-randomise", topo)
		}
	}
}

// TestHybridWrappedTotalFailsTyped forces the one case the 128-bit masked
// sum cannot represent: masks with μ + E_b ≥ 2^128, injected by shifting a
// fold frame by δ = 2^128−1−μ and Hs's ciphertext by −δ, exactly as if the
// mask total had been 2^128−1. The root's total is then E_b − 2^128, every
// masked product is negative, and Hs must refuse the window with
// ErrSlotOverflow — every party returning — rather than trade on it.
func TestHybridWrappedTotalFailsTyped(t *testing.T) {
	for _, topo := range []string{AggregationRing, AggregationTree} {
		f := newHybridP4Fixture(t, 9400, 2, topo)
		delta := new(big.Int).Sub(two128, big.NewInt(1))
		delta.Sub(delta, f.maskTotal(t))
		pk := &f.hs.key.PublicKey
		rewriteFrames(f.eng, func(_, _, phase string, payload []byte) []byte {
			switch phase {
			case phaseFold: // the one hop of a two-member fold
				v := new(big.Int).SetBytes(payload)
				v.Add(v, delta)
				return v.Mod(v, two128).FillBytes(make([]byte, 16))
			case phaseUnmask:
				var ct paillier.Ciphertext
				if err := ct.UnmarshalBinary(payload); err != nil {
					t.Error(err)
					return payload
				}
				shifted, err := pk.AddPlain(&ct, new(big.Int).Neg(delta))
				if err != nil {
					t.Error(err)
					return payload
				}
				out, err := shifted.AppendFixed(nil, pk)
				if err != nil {
					t.Error(err)
				}
				return out
			}
			return payload
		})
		if _, err := f.run(); !errors.Is(err, paillier.ErrSlotOverflow) {
			t.Errorf("%s: err = %v, want ErrSlotOverflow", topo, err)
		}
	}
}

// TestRejectsMalformedFrames feeds every frame kind a window receives, on
// both backends and both topologies, one bad frame — a byte short or long,
// or for a ciphertext the same value one byte wider, behind a leading zero —
// and for hybrid's masked Protocol 4 a few more: the window fails with a
// *WindowError naming the receiver, its phase, the sender and the tag, and
// never panics.
func TestRejectsMalformedFrames(t *testing.T) {
	type row struct {
		backend, name, phase string
		mangle               func(payload []byte, pk *paillier.PublicKey) []byte
		invalid              bool // the cause is paillier.ErrInvalidCiphertext, not a length
	}
	short := func(p []byte, _ *paillier.PublicKey) []byte { return p[:len(p)-1] }
	long := func(p []byte, _ *paillier.PublicKey) []byte { return append(p[:len(p):len(p)], 0) }
	wide := func(p []byte, _ *paillier.PublicKey) []byte {
		out := binary.BigEndian.AppendUint32(nil, binary.BigEndian.Uint32(p)+1)
		return append(append(out, 0), p[4:]...)
	}
	cipher := func(body func(pk *paillier.PublicKey) []byte) func([]byte, *paillier.PublicKey) []byte {
		return func(_ []byte, pk *paillier.PublicKey) []byte {
			out, err := (&paillier.Ciphertext{C: new(big.Int).SetBytes(body(pk))}).AppendFixed(nil, pk)
			if err != nil {
				panic(err)
			}
			return out
		}
	}
	rows := []row{
		{BackendHybrid, "fold word empty", phaseFold, func([]byte, *paillier.PublicKey) []byte { return nil }, false},
		{BackendHybrid, "unmask narrow", phaseUnmask, func([]byte, *paillier.PublicKey) []byte { return []byte{0, 0, 0, 1, 7} }, false},
		{BackendHybrid, "unmask zero", phaseUnmask, cipher(func(*paillier.PublicKey) []byte { return nil }), true},
		{BackendHybrid, "unmask n²", phaseUnmask, cipher(func(pk *paillier.PublicKey) []byte { return pk.N2.Bytes() }), true},
	}
	// Every core-owned tag: ciphertexts, then 8- and 16-byte words, Hs's
	// ratio vector and the one-byte role and kind frames.
	for _, b := range []struct {
		backend        string
		ciphers, plain []string
	}{
		{BackendPaillier,
			[]string{"pme/rb", "pme/rs", "pp/ring", "pd/ring", "pd/total", "pd/masked"},
			[]string{"role", "pme/kind", "pp/price", "pd/ratios", "pd/energy", "pd/reply"}},
		{BackendHybrid,
			[]string{"pd/unmask", "pd/total", "pd/masked"},
			[]string{"role", "pme/rb", "pme/kind", "pp/ring", "pp/price", "pd/ring", "pd/ratios", "pd/energy", "pd/reply"}},
	} {
		for _, phase := range b.ciphers {
			rows = append(rows, row{b.backend, phase + " short", phase, short, false}, row{b.backend, phase + " long", phase, wide, false})
		}
		for _, phase := range b.plain {
			rows = append(rows, row{b.backend, phase + " short", phase, short, false}, row{b.backend, phase + " long", phase, long, false})
		}
	}

	// One engine per backend and topology runs a window per row: a failed
	// window leaves the next one nothing to trip on.
	for _, backend := range []string{BackendPaillier, BackendHybrid} {
		for _, topo := range []string{AggregationRing, AggregationTree} {
			f := newP4Fixture(t, backend, 9500, 3, topo)
			keys := make(map[string]*paillier.PublicKey)
			for _, p := range f.eng.parties {
				keys[p.ID()] = &p.key.PublicKey
			}
			var mu sync.Mutex
			var cur row
			var sender, receiver string
			rewriteFrames(f.eng, func(from, to, phase string, payload []byte) []byte {
				mu.Lock()
				defer mu.Unlock()
				if phase != cur.phase || sender != "" {
					return payload
				}
				sender, receiver = from, to
				return cur.mangle(payload, keys[from])
			})
			for w, tc := range rows {
				if tc.backend != backend {
					continue
				}
				t.Run(backend+"/"+tc.name+"/"+topo, func(t *testing.T) {
					mu.Lock()
					cur, sender, receiver = tc, "", ""
					mu.Unlock()
					ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
					defer cancel()
					_, err := f.eng.RunWindow(ctx, w, f.inputs)
					var we *WindowError
					if !errors.As(err, &we) {
						t.Fatalf("err = %v, want a *WindowError", err)
					}
					_, _, phase, _ := transport.ParseScopedWindowTag(we.Tag)
					if we.Peer != sender || phase != tc.phase {
						t.Errorf("error names sender %q, tag %q (%v); the bad frame came from %q under %s", we.Peer, we.Tag, err, sender, tc.phase)
					}
					if want := phaseName(tc.phase); we.Window != w || we.Party != receiver || we.Phase != want {
						t.Errorf("error names window %d, party %q, phase %q (%v); the bad frame was window %d's, to %q in %s", we.Window, we.Party, we.Phase, err, w, receiver, want)
					}
					if errors.Is(err, paillier.ErrInvalidCiphertext) != tc.invalid {
						t.Errorf("err = %v, ErrInvalidCiphertext cause = %v", err, !tc.invalid)
					}
				})
			}
		}
	}
}

// phaseName is the Protocol 1 phase a bare window tag belongs to, as a
// *WindowError's Phase names it.
func phaseName(tag string) string {
	switch {
	case tag == "role":
		return "roles"
	case strings.HasPrefix(tag, "pme/"):
		return "market evaluation"
	case strings.HasPrefix(tag, "pp/"):
		return "pricing"
	}
	return "distribution"
}

// TestWindowErrorNamesEachLayerOnce pins one whole failure message: the
// window (the scheduler), the party and the phase (runWindow), then the
// frame's tag and sender (where it is refused) — each named once.
func TestWindowErrorNamesEachLayerOnce(t *testing.T) {
	f := newP4Fixture(t, BackendPaillier, 9500, 3, AggregationRing)
	rewriteFrames(f.eng, func(from, _, phase string, p []byte) []byte {
		if phase != phaseFold || from != "a02" { // a02 → a03, the ring's first hop
			return p
		}
		out := binary.BigEndian.AppendUint32(nil, binary.BigEndian.Uint32(p)+1)
		return append(append(out, 0), p[4:]...)
	})
	const want = "core: window 0: party a03: distribution: frame w0/pd/ring from a02 has 133 bytes, want 132"
	if _, err := f.run(); err == nil || err.Error() != want {
		t.Errorf("err = %v\nwant  %s", err, want)
	}
}

// TestMaskedTotalOutOfRange sends each Protocol 2 round's sink a well-formed
// last hop whose opened total is negative — under hybrid the word with its
// top bit flipped, under paillier Enc(−2^62) under the sink's key — on both
// topologies. Hybrid has one round, whose sink Hr1 also refuses a last hop
// that opens E_b − E_s at max(b, s)·fixed.MaxShare + 1, which a [0, 2^64)
// check would pass. The window fails in market evaluation naming the round
// and trades nothing, and the engine's next window completes.
func TestMaskedTotalOutOfRange(t *testing.T) {
	const m = 3 // max(b, s): two sellers, three buyers
	for _, tc := range []struct {
		backend, phase string
		wide           bool
	}{
		{BackendPaillier, "pme/rb", false},
		{BackendPaillier, "pme/rs", false},
		{BackendHybrid, "pme/rb", false},
		{BackendHybrid, "pme/rb", true},
	} {
		for _, topo := range []string{AggregationRing, AggregationTree} {
			name := tc.backend + "/" + topo + "/" + tc.phase
			want := "masked total " + tc.phase + " out of range: -"
			if tc.wide {
				name += "/wide"
				want = fmt.Sprintf("masked total %s out of range: %d", tc.phase, m*fixed.MaxShare+1)
			}
			t.Run(name, func(t *testing.T) {
				f := newP4Fixture(t, tc.backend, 9600, m, topo)
				sellers := []string{"a00", "a01"}
				sink := sellers[publicCoin(0, "hr1", sellers, f.buyers, len(sellers))]
				if tc.phase == "pme/rs" {
					sink = f.buyers[publicCoin(0, "hr2", sellers, f.buyers, len(f.buyers))]
				}
				// The wide hop adds what takes the opened E_b − E_s to the bound + 1.
				diff := f.eb.Int64()
				for _, in := range f.inputs[:2] {
					sn, err := fixed.FromFloat(in.NetEnergy())
					if err != nil {
						t.Fatal(err)
					}
					diff -= int64(sn)
				}
				delta := uint64(m*int64(fixed.MaxShare) + 1 - diff)
				var pk *paillier.PublicKey
				for _, p := range f.eng.parties {
					if p.ID() == sink {
						pk = &p.key.PublicKey
					}
				}
				var mu sync.Mutex
				on, hits := true, 0
				rewriteFrames(f.eng, func(_, to, ph string, p []byte) []byte {
					mu.Lock()
					defer mu.Unlock()
					if !on || ph != tc.phase || to != sink {
						return p
					}
					hits++
					if tc.backend == BackendHybrid {
						out := bytes.Clone(p)
						if tc.wide {
							binary.BigEndian.PutUint64(out, binary.BigEndian.Uint64(out)+delta)
						} else {
							out[0] ^= 0x80
						}
						return out
					}
					ct, err := pk.Encrypt(nil, big.NewInt(-1<<62))
					if err == nil {
						p, err = ct.AppendFixed(nil, pk)
					}
					if err != nil {
						panic(err)
					}
					return p
				})

				res, err := f.run()
				var we *WindowError
				if !errors.As(err, &we) || we.Window != 0 || we.Party != sink || we.Phase != "market evaluation" ||
					we.Peer != "" || we.Tag != "" || !strings.HasPrefix(we.Err.Error(), want) || res != nil {
					t.Fatalf("res = %v, err = %v; want a *WindowError for window 0, party %s, market evaluation, caused by %q", res, err, sink, want)
				}
				mu.Lock()
				on = false
				if hits != 1 {
					t.Errorf("%d last hops to %s under %s, want 1", hits, sink, tc.phase)
				}
				mu.Unlock()
				ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
				defer cancel()
				if res, err := f.eng.RunWindow(ctx, 1, f.inputs); err != nil || len(res.Trades) == 0 {
					t.Fatalf("next window: %v, err = %v", res, err)
				}
			})
		}
	}
}

// TestReplyRefusalFields adds 1 000 µ-units to every pd/reply frame on both
// backends, in a general window (buyers pay sellers) and an extreme one
// (sellers confirm what buyers routed). A supplier refuses the reply with a
// *WindowError whose Peer and Tag name the replying member and the reply
// tag, and whose text names the frame once.
func TestReplyRefusalFields(t *testing.T) {
	for _, backend := range []string{BackendPaillier, BackendHybrid} {
		for _, kind := range []market.Kind{market.GeneralMarket, market.ExtremeMarket} {
			t.Run(backend+"/"+kind.String(), func(t *testing.T) {
				f := newP4Fixture(t, backend, 9700, 3, AggregationRing)
				sellers := []string{"a00", "a01"}
				suppliers, repliers, cause := sellers, f.buyers, "paid "
				if kind == market.ExtremeMarket {
					f.inputs[0].Generation, f.inputs[1].Generation = 1, 1.1
					suppliers, repliers, cause = f.buyers, sellers, "confirmed "
				}
				rewriteFrames(f.eng, func(_, _, phase string, p []byte) []byte {
					if phase != "pd/reply" {
						return p
					}
					out := bytes.Clone(p)
					binary.BigEndian.PutUint64(out, binary.BigEndian.Uint64(out)+1000)
					return out
				})
				res, err := f.run()
				var we *WindowError
				if !errors.As(err, &we) || res != nil || we.Window != 0 || !contains(suppliers, we.Party) ||
					we.Phase != "distribution" || !contains(repliers, we.Peer) || we.Tag != "w0/pd/reply" ||
					!strings.Contains(err.Error(), "distribution: frame w0/pd/reply from "+we.Peer+": "+cause) {
					t.Fatalf("res = %v, err = %#v (%v); want a supplier's *WindowError naming a replier and w0/pd/reply, caused by %q", res, we, err, cause)
				}
			})
		}
	}
}
