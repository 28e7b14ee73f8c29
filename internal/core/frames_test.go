package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
)

// FuzzWindowFrames feeds arbitrary bytes as every frame kind a window
// decodes (frames.go): the one-byte role and market-kind frames, the 8- and
// 16-byte words, a ciphertext under a fixed 256-bit key, and Hs's ratio
// vector for a roster of len/8 members and of three. Each input must decode
// in range — and re-encode to the same bytes — or fail as a *WindowError
// whose Peer and Tag name the sender and the tag; it must never panic.
func FuzzWindowFrames(f *testing.F) {
	key, _, err := NewKeyRing(testConfig(1)).key("a00", false)
	if err != nil {
		f.Fatal(err)
	}
	pk := &key.PublicKey
	ct, err := pk.Encrypt(rand.Reader, big.NewInt(42))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := ct.AppendFixed(nil, pk)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append(valid[:len(valid):len(valid)], 0))
	f.Add([]byte{})
	f.Add([]byte{byte(market.RoleOff)})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xff}, 8))
	f.Add(bytes.Repeat([]byte{0xff}, 16))
	f.Add(encodeRatios([]float64{0.25, 0.5, 0.25}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		typed := func(what string, err error) bool {
			var we *WindowError
			if err != nil && (!errors.As(err, &we) || we.Peer != "peer" || we.Tag != "w0/t") {
				t.Fatalf("%s: %v is not a *WindowError naming peer and w0/t", what, err)
			}
			return err == nil
		}
		for _, top := range []byte{byte(market.RoleOff), byte(market.ExtremeMarket)} {
			if k, err := decodeKind(raw, top, "peer", "w0/t"); typed("kind", err) && (k < 1 || k > top || !bytes.Equal(raw, []byte{k})) {
				t.Fatalf("kind %d decoded from %x, top %d", k, raw, top)
			}
		}
		for _, words := range []int{1, 2} {
			if s, err := decodeShare(raw, words, "peer", "w0/t"); typed("word", err) && !bytes.Equal(encodeShare(s, words), raw) {
				t.Fatalf("%d-word frame %x decoded to %x", words, raw, s)
			}
		}
		for _, n := range []int{len(raw) / 8, 3} {
			if v, err := decodeRatios(raw, n, "peer", "w0/t"); typed("ratios", err) {
				for _, x := range v {
					if checkRatio(x) != nil {
						t.Fatalf("ratio %g decoded from %x", x, raw)
					}
				}
				if len(v) != n || !bytes.Equal(encodeRatios(v), raw) {
					t.Fatalf("%d-member vector %x decoded to %v", n, raw, v)
				}
			}
		}
		var c paillier.Ciphertext
		if err := decodeCipher(raw, pk, &c, "peer", "w0/t"); typed("ciphertext", err) {
			if c.C.Sign() <= 0 || c.C.Cmp(pk.N2) >= 0 {
				t.Fatalf("ciphertext %x decoded outside [1, n²)", raw)
			}
			if back, err := c.AppendFixed(nil, pk); err != nil || !bytes.Equal(back, raw) {
				t.Fatalf("ciphertext %x re-encodes to %x (%v)", raw, back, err)
			}
		}
	})
}
