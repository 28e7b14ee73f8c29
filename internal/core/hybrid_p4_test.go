package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
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

// hybridP4Fixture is a general-market window on the hybrid backend whose
// Protocol 4 roles are known before it runs: sellers a00 and a01, buyers —
// the demand side — a02 and up.
type hybridP4Fixture struct {
	eng     *Engine
	inputs  []market.WindowInput
	buyers  []string
	hs      *Party
	root    string
	foldTag string
	eb      *big.Int // Σ|sn_j| over the buyers, in µ-units
}

func newHybridP4Fixture(t *testing.T, seed int64, demand int, topo string) *hybridP4Fixture {
	t.Helper()
	agents := testAgents(2 + demand)
	f := &hybridP4Fixture{inputs: make([]market.WindowInput, len(agents)), eb: new(big.Int)}
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
		f.eb.Add(f.eb, sn.Abs().Big())
		f.buyers = append(f.buyers, agents[i].ID)
	}
	cfg := testConfig(seed)
	cfg.KeyBits, cfg.CryptoBackend, cfg.Aggregation = 512, BackendHybrid, topo
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
func (f *hybridP4Fixture) maskTotal(t *testing.T) *big.Int {
	t.Helper()
	r := &windowRun{Party: f.hs}
	mu, err := r.maskTotal(f.buyers, f.foldTag, shapeWide)
	if err != nil {
		t.Fatal(err)
	}
	return new(big.Int).Set(r.wideInt(mu))
}

func (f *hybridP4Fixture) run() (*WindowResult, error) {
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
				out, err := shifted.MarshalFixed(pk)
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

// TestHybridRejectsMalformedFrames feeds each of the two receives Protocol
// 4's masked step 1 adds one bad frame: the window fails with a frameError
// naming the sender and the tag, and never panics.
func TestHybridRejectsMalformedFrames(t *testing.T) {
	cipher := func(body func(pk *paillier.PublicKey) []byte) func([]byte, *paillier.PublicKey) []byte {
		return func(_ []byte, pk *paillier.PublicKey) []byte {
			out, err := (&paillier.Ciphertext{C: new(big.Int).SetBytes(body(pk))}).MarshalFixed(pk)
			if err != nil {
				panic(err)
			}
			return out
		}
	}
	for _, tc := range []struct {
		name    string
		phase   string
		mangle  func(payload []byte, pk *paillier.PublicKey) []byte
		invalid bool // the cause is paillier.ErrInvalidCiphertext, not a length
	}{
		{"fold word short", phaseFold, func(p []byte, _ *paillier.PublicKey) []byte { return p[:15] }, false},
		{"fold word long", phaseFold, func(p []byte, _ *paillier.PublicKey) []byte { return append(p[:16:16], 0) }, false},
		{"fold word empty", phaseFold, func([]byte, *paillier.PublicKey) []byte { return nil }, false},
		{"unmask short", phaseUnmask, func(p []byte, _ *paillier.PublicKey) []byte { return p[:len(p)-1] }, false},
		{"unmask narrow", phaseUnmask, func([]byte, *paillier.PublicKey) []byte { return []byte{0, 0, 0, 1, 7} }, false},
		{"unmask zero", phaseUnmask, cipher(func(*paillier.PublicKey) []byte { return nil }), true},
		{"unmask n²", phaseUnmask, cipher(func(pk *paillier.PublicKey) []byte { return pk.N2.Bytes() }), true},
	} {
		for _, topo := range []string{AggregationRing, AggregationTree} {
			t.Run(tc.name+"/"+topo, func(t *testing.T) {
				f := newHybridP4Fixture(t, 9500, 3, topo)
				var mu sync.Mutex
				var sender string
				rewriteFrames(f.eng, func(from, _, phase string, payload []byte) []byte {
					mu.Lock()
					defer mu.Unlock()
					if phase != tc.phase || sender != "" {
						return payload
					}
					sender = from
					return tc.mangle(payload, &f.hs.key.PublicKey)
				})
				_, err := f.run()
				var fe *frameError
				if !errors.As(err, &fe) {
					t.Fatalf("err = %v, want a *frameError", err)
				}
				_, _, phase, _ := transport.ParseScopedWindowTag(fe.tag)
				if fe.from != sender || phase != tc.phase {
					t.Errorf("error names sender %q, tag %q (%v); the bad frame came from %q under %s", fe.from, fe.tag, err, sender, tc.phase)
				}
				if errors.Is(err, paillier.ErrInvalidCiphertext) != tc.invalid {
					t.Errorf("err = %v, ErrInvalidCiphertext cause = %v", err, !tc.invalid)
				}
			})
		}
	}
}
