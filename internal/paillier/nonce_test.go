package paillier

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// patternReader yields the bytes next, next+step, next+2·step, … — a
// "random" source whose output no Go release can change — and counts what
// it handed out.
type patternReader struct {
	next, step byte
	read       int
}

func (r *patternReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.next
		r.next += r.step
	}
	r.read += len(p)
	return len(p), nil
}

// refNonceBase is the specification of the blinding base, written the slow
// obvious way: y = SHA-256(tag ‖ n ‖ ctr) for ctr = 0, 1, … concatenated
// until longer than n, as a big-endian integer; h = −y² mod n; h_s = h^n
// mod n².
func refNonceBase(pk *PublicKey) (h, hs *big.Int) {
	var stream []byte
	for ctr := 0; len(stream) <= len(pk.N.Bytes()); ctr++ {
		in := append([]byte("pem/paillier/djn-nonce-base/v1"), pk.N.Bytes()...)
		in = append(in, byte(ctr>>24), byte(ctr>>16), byte(ctr>>8), byte(ctr))
		block := sha256.Sum256(in)
		stream = append(stream, block[:]...)
	}
	y := new(big.Int).SetBytes(stream)
	h = new(big.Int).Mul(y, y)
	h.Mod(h.Neg(h), pk.N)
	return h, new(big.Int).Exp(h, pk.N, pk.N2)
}

// nonceLen is the specified exponent length in bytes: ⌈⌈|n|/2⌉/8⌉.
func nonceLen(pk *PublicKey) int { return ((pk.N.BitLen()+1)/2 + 7) / 8 }

// TestBlindingFactorMatchesReference checks the comb table against the
// definition h_s^x mod n², x being the bytes the reader handed out, and
// that each factor costs the reader exactly nonceLen bytes. The odd sizes
// put the block width a at odd values and off byte boundaries.
func TestBlindingFactorMatchesReference(t *testing.T) {
	for _, bits := range []int{64, 65, 72, 100, 128, 250, 512, 1024} {
		key, err := GenerateKey(testRand(int64(bits)), bits)
		if err != nil {
			t.Fatal(err)
		}
		_, hs := refNonceBase(&key.PublicKey)
		want := nonceLen(&key.PublicKey)
		mirror := patternReader{next: 5, step: 59}
		rd := mirror
		for i := 0; i < 8; i++ {
			before := rd.read
			f, err := key.BlindingFactor(&rd)
			if err != nil {
				t.Fatal(err)
			}
			if got := rd.read - before; got != want {
				t.Fatalf("bits=%d: factor consumed %d bytes, want %d", bits, got, want)
			}
			x := make([]byte, want)
			mirror.Read(x)
			if ref := new(big.Int).Exp(hs, new(big.Int).SetBytes(x), key.N2); f.Cmp(ref) != 0 {
				t.Fatalf("bits=%d factor %d: got %v, want h_s^x = %v", bits, i, f, ref)
			}
		}
	}
}

// TestBlindingFactorExtremeExponents drives every table row at once (all
// ones), none (zero: the factor is then 1 — the one exponent in 2^512 that
// does not blind) and single bits at the block and sub-block seams.
func TestBlindingFactorExtremeExponents(t *testing.T) {
	key, err := GenerateKey(testRand(3), 100) // a = 7 bits, b = 4
	if err != nil {
		t.Fatal(err)
	}
	_, hs := refNonceBase(&key.PublicKey)
	n := nonceLen(&key.PublicKey)
	exps := [][]byte{make([]byte, n), bytes.Repeat([]byte{0xff}, n)}
	for bit := 0; bit < 8*n; bit++ {
		x := make([]byte, n)
		x[n-1-bit/8] = 1 << (bit % 8)
		exps = append(exps, x)
	}
	for _, x := range exps {
		f, err := key.BlindingFactor(bytes.NewReader(x))
		if err != nil {
			t.Fatal(err)
		}
		if ref := new(big.Int).Exp(hs, new(big.Int).SetBytes(x), key.N2); f.Cmp(ref) != 0 {
			t.Fatalf("x=%x: got %v, want %v", x, f, ref)
		}
	}
	if _, err := key.BlindingFactor(bytes.NewReader(make([]byte, n-1))); err == nil {
		t.Error("short randomness read: want error")
	}
}

// TestBlindingFactorIsNthResidue checks what correctness rests on: every
// factor f is a non-trivial n-th residue, f^λ ≡ 1 (mod n²), so it vanishes
// under decryption; and encryption round-trips through both decryption
// paths at the ends of the plaintext range.
func TestBlindingFactorIsNthResidue(t *testing.T) {
	for _, bits := range []int{512, 1024} {
		key, err := GenerateKey(testRand(int64(bits)), bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := testRand(7)
		for i := 0; i < 16; i++ {
			f, err := key.BlindingFactor(rng)
			if err != nil {
				t.Fatal(err)
			}
			if f.Cmp(one) == 0 {
				t.Fatalf("bits=%d: factor %d is 1", bits, i)
			}
			if new(big.Int).Exp(f, key.lambda, key.N2).Cmp(one) != 0 {
				t.Fatalf("bits=%d: factor %d is not an n-th residue", bits, i)
			}
		}
		edge := new(big.Int).Sub(key.MaxSigned(), one) // n/2 − 1
		for _, m := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), edge, new(big.Int).Neg(edge)} {
			c, err := key.Encrypt(rng, m)
			if err != nil {
				t.Fatalf("Encrypt(%v): %v", m, err)
			}
			crt, err := key.Decrypt(c)
			if err != nil {
				t.Fatal(err)
			}
			textbook, err := key.DecryptTextbook(c)
			if err != nil {
				t.Fatal(err)
			}
			if crt.Cmp(m) != 0 || textbook.Cmp(m) != 0 {
				t.Fatalf("bits=%d m=%v: CRT %v, textbook %v", bits, m, crt, textbook)
			}
		}
	}
}

// TestFirstEncryptRace has 64 goroutines race the table build of one fresh
// key (run under -race in CI): all must see one complete table.
func TestFirstEncryptRace(t *testing.T) {
	key, err := GenerateKey(testRand(8), 512)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			c, err := key.EncryptInt64(testRand(int64(g)), int64(g)-32)
			if err != nil {
				t.Error(err)
				return
			}
			if m, err := key.DecryptInt64(c); err != nil || m != int64(g)-32 {
				t.Errorf("goroutine %d: decrypted %d, %v", g, m, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestUnmarshalDropsNonceTable re-targets a used PublicKey at a second
// modulus: encryption must follow the new n, not a table of the old one.
func TestUnmarshalDropsNonceTable(t *testing.T) {
	first, err := GenerateKey(testRand(9), 256)
	if err != nil {
		t.Fatal(err)
	}
	second, err := GenerateKey(testRand(10), 256)
	if err != nil {
		t.Fatal(err)
	}
	var pk PublicKey
	for _, key := range []*PrivateKey{first, second} {
		wire, err := key.PublicKey.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := pk.UnmarshalBinary(wire); err != nil {
			t.Fatal(err)
		}
		c, err := pk.EncryptInt64(testRand(11), -77)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := key.DecryptInt64(c); err != nil || m != -77 {
			t.Fatalf("decrypt under the key just unmarshalled: %d, %v", m, err)
		}
	}
}

// abiKey is the fixed 128-bit key of the golden-byte test: the two largest
// 64-bit primes, 2^64 − 59 and 2^64 − 83, drawn from no sampler a Go
// release could change.
func abiKey(t testing.TB) *PrivateKey {
	t.Helper()
	p := new(big.Int).SetUint64(1<<64 - 59)
	q := new(big.Int).SetUint64(1<<64 - 83)
	key, err := newPrivateKey(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if key.N.BitLen() != 128 {
		t.Fatalf("ABI key has a %d-bit modulus", key.N.BitLen())
	}
	return key
}

// TestABI pins the bytes other parties and later releases depend on: the
// public-key encoding, the blinding base derived from n (hash, domain tag,
// counter layout, reduction) and fixed-width ciphertexts from a pattern
// reader (exponent length and byte order, comb evaluation). A change to
// any of them is a deliberate edit of these constants.
func TestABI(t *testing.T) {
	key := abiKey(t)
	pk := &key.PublicKey
	wire, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h, _ := refNonceBase(pk)
	rd := &patternReader{next: 1, step: 7}
	var cts [2][]byte
	for i, m := range []int64{42, -42} {
		c, err := pk.EncryptInt64(rd, m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := key.DecryptInt64(c); err != nil || got != m {
			t.Fatalf("golden ciphertext decrypts to %d, %v", got, err)
		}
		if cts[i], err = c.MarshalFixed(pk); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"PublicKey.MarshalBinary", wire, abiGolden.pk},
		{"nonce base h (specification)", h.Bytes(), abiGolden.h},
		{"nonce base h (package)", nonceBase(pk.N).Bytes(), abiGolden.h},
		{"MarshalFixed(Encrypt(42))", cts[0], abiGolden.ct42},
		{"MarshalFixed(Encrypt(-42))", cts[1], abiGolden.ctNeg42},
	} {
		if hex.EncodeToString(g.got) != g.want {
			t.Errorf("%s = %x, want %s", g.name, g.got, g.want)
		}
	}
	if rd.read != 2*nonceLen(pk) {
		t.Errorf("two encryptions read %d bytes, want %d", rd.read, 2*nonceLen(pk))
	}
}

// abiGolden was computed once by an independent implementation of the
// specification (Python: hashlib and pow), not copied from this package's
// output.
var abiGolden = struct{ pk, h, ct42, ctNeg42 string }{
	pk:      "00000010" + "ffffffffffffff720000000000001321",
	h:       "ec07914ebe3f5067de546c5f028f2908",
	ct42:    "00000020" + "4a88ab401da235aa7bf8c771687703e658ae37dccda97a723782ad49365bd8ba",
	ctNeg42: "00000020" + "c52f217297d6b19a05d654eab38c6e90ae1c6428e25e6ec35d7c6660da8ba165",
}

// TestFixedLenAcrossKeySizes pins the frame width the byte accounting
// rests on: every ciphertext under a key is 4 + ⌈|n²|/8⌉ bytes.
func TestFixedLenAcrossKeySizes(t *testing.T) {
	for _, bits := range []int{512, 1024, 2048} {
		key, err := GenerateKey(testRand(int64(bits)), bits)
		if err != nil {
			t.Fatal(err)
		}
		pk := &key.PublicKey
		if want := 4 + 2*bits/8; pk.FixedLen() != want {
			t.Errorf("bits=%d: FixedLen = %d, want %d", bits, pk.FixedLen(), want)
		}
		rng := testRand(12)
		for _, m := range []int64{0, 42, -42} {
			c, err := pk.EncryptInt64(rng, m)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.MarshalFixed(pk)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != pk.FixedLen() {
				t.Errorf("bits=%d m=%d: %d wire bytes, want %d", bits, m, len(b), pk.FixedLen())
			}
		}
	}
}

func BenchmarkBlindingFactor(b *testing.B) {
	for _, bits := range []int{1024, 2048} {
		key, err := GenerateKey(testRand(26), bits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			rng := testRand(27)
			key.nonces() // the table is not what this measures
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := key.BlindingFactor(rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNonceTableBuild(b *testing.B) {
	for _, bits := range []int{1024, 2048} {
		key, err := GenerateKey(testRand(28), bits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				(&nonceTable{red: newBarrett(key.N2)}).build(key.N, key.N2)
			}
		})
	}
}
