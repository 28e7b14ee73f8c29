package paillier

import (
	"encoding/hex"
	"fmt"
	"math/big"
	"math/bits"
	"testing"
)

// FuzzMulMod checks the Montgomery reducer against Mul+QuoRem. Its modulus
// is n², which is always odd, and Montgomery reduction needs an odd one:
// even moduli are outside its contract, so the fuzzer's m gets its low bit
// set. mul and exit are checked on the operands as given, cut to m's word
// length (their contract is any operand below R); mulMod on them reduced,
// and always at x = y = m−1, the largest product of reduced operands.
func FuzzMulMod(f *testing.F) {
	hx := func(s string) []byte { b, _ := hex.DecodeString(s); return b }
	// A product below m.
	f.Add(hx("03"), hx("05"), hx("65"))
	// Single-word moduli, one near 2^64 and all ones.
	f.Add(hx("ffff"), hx("fe"), hx("fffffffffffb"))
	f.Add(hx("ff"), hx("fe"), hx("ffffffffffffffc5"))
	f.Add(hx("ffffffffffffffff"), hx("fffffffffffffffe"), hx("ffffffffffffffff"))
	// Top word 1.
	f.Add(hx("010000000000000003"), hx("ffffffffffffffff"), hx("010000000000000005"))
	f.Add(hx("01ffffffffffffffffffffffffffffffff"), hx("02"), hx("0100000000000000000000000000000001"))
	// m = 1, and a zero operand.
	f.Add(hx("07"), hx("07"), hx("01"))
	f.Add(hx(""), hx("09"), hx("0b"))
	// Operands just below R over m just below R: the word loop carries out
	// and takes its one subtraction of m, on one word and on two.
	f.Add(hx("ffffffffffffffff"), hx("ffffffffffffffff"), hx("ffffffffffffffc5"))
	f.Add(hx("ffffffffffffffffffffffffffffffff"), hx("ffffffffffffffffffffffffffffffff"), hx("ffffffffffffffffffffffffffffff61"))
	f.Fuzz(func(t *testing.T, xb, yb, mb []byte) {
		m := new(big.Int).SetBytes(mb)
		checkMulMod(t, new(big.Int).SetBytes(xb), new(big.Int).SetBytes(yb), m.SetBit(m, 0, 1))
	})
}

func checkMulMod(t *testing.T, x, y, m *big.Int) {
	t.Helper()
	red := newMont(m)
	n := len(red.mw)
	bigR := new(big.Int).Lsh(one, uint(n*bits.UintSize))
	rInv := new(big.Int).ModInverse(bigR, m)
	s := GetScratch()
	defer s.Put()
	z, w, tmp := s.words(n), s.words(n), s.words(2*n)
	value := func() *big.Int { return new(big.Int).SetBits(append([]big.Word(nil), z...)) }

	// mul in place, the way the comb and the ladder call it: x·y·R⁻¹ mod
	// m, below R (n words hold nothing larger).
	x, y = new(big.Int).Mod(x, bigR), new(big.Int).Mod(y, bigR)
	red.mul(z, load(z, x), load(w, y), tmp)
	want := new(big.Int).Mul(x, y)
	want.Mod(want.Mul(want, rInv), m)
	if got := value(); new(big.Int).Mod(got, m).Cmp(want) != 0 {
		t.Fatalf("mul(%v, %v) mod %v = %v, want ≡ %v", x, y, m, got, want)
	}
	// exit reduces fully, m itself (the form's other zero) included.
	for _, v := range []*big.Int{x, m} {
		want.Mod(want.Mul(v, rInv), m)
		if got := red.exit(load(z, v), tmp); got.Cmp(want) != 0 {
			t.Fatalf("exit(%v) mod %v = %v, want %v", v, m, got, want)
		}
	}
	// mulMod in place, the way AddInPlace calls it, on reduced operands.
	top := new(big.Int).Sub(m, one)
	for _, op := range [][2]*big.Int{{x.Mod(x, m), y.Mod(y, m)}, {top, top}} {
		want.Mod(want.Mul(op[0], op[1]), m)
		if got := red.mulMod(s, op[0], op[0], op[1]); got.Cmp(want) != 0 {
			t.Fatalf("mulMod(·, %v) mod %v = %v, want %v", op[1], m, got, want)
		}
	}
}

// TestMontAcrossKeySizes checks every operation that multiplies mod n²
// against its definition by Exp or by Mul and Mod, at each key size: a
// blinding factor, ScalarMul at small and word-size scalars of both signs,
// Add and AddInPlace, AddPlain, and EncryptWithFactor with the factor as
// given, above n² and negative.
func TestMontAcrossKeySizes(t *testing.T) {
	for _, size := range []int{256, 512, 1024, 2048} {
		key, err := GenerateKey(testRand(int64(size)), size)
		if err != nil {
			t.Fatal(err)
		}
		pk := &key.PublicKey
		mod := func(x *big.Int) *big.Int { return x.Mod(x, pk.N2) }
		prod := func(x, y *big.Int) *big.Int { return mod(new(big.Int).Mul(x, y)) }
		check := func(what string, got, want *big.Int) {
			t.Helper()
			if got.Cmp(want) != 0 {
				t.Fatalf("bits=%d %s = %v, want %v", size, what, got, want)
			}
		}

		_, hs := refNonceBase(pk)
		mirror := patternReader{next: 3, step: 97}
		rd := mirror
		f, err := pk.BlindingFactor(&rd)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]byte, nonceLen(pk))
		mirror.Read(x)
		check("BlindingFactor", f, new(big.Int).Exp(hs, new(big.Int).SetBytes(x), pk.N2))

		// (1 + m·n) mod n² for the signed plaintext m.
		plain := func(m int64) *big.Int {
			g := new(big.Int).Mul(big.NewInt(m), pk.N)
			return mod(g.Add(g, one))
		}
		for _, rn := range []*big.Int{f, new(big.Int).Add(f, pk.N2), new(big.Int).Sub(f, pk.N2)} {
			c, err := pk.EncryptWithFactor(big.NewInt(-17), rn)
			if err != nil {
				t.Fatal(err)
			}
			check("EncryptWithFactor", c.C, prod(plain(-17), f))
		}

		rng := testRand(41)
		a, err := pk.Encrypt(rng, big.NewInt(1234))
		if err != nil {
			t.Fatal(err)
		}
		b, err := pk.Encrypt(rng, big.NewInt(-99))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := pk.Add(a, b)
		if err != nil {
			t.Fatal(err)
		}
		check("Add", sum.C, prod(a.C, b.C))
		acc := &Ciphertext{C: new(big.Int).Set(a.C)}
		if err := pk.AddInPlace(acc, b); err != nil {
			t.Fatal(err)
		}
		check("AddInPlace", acc.C, sum.C)
		shifted, err := pk.AddPlain(a, big.NewInt(-5000))
		if err != nil {
			t.Fatal(err)
		}
		check("AddPlain", shifted.C, prod(a.C, plain(-5000)))

		inv := new(big.Int).ModInverse(a.C, pk.N2)
		for _, k := range []int64{2, 3, -5, 1<<40 - 1} {
			got, err := pk.ScalarMul(a, big.NewInt(k))
			if err != nil {
				t.Fatal(err)
			}
			base, e := a.C, big.NewInt(k)
			if k < 0 {
				base, e = inv, e.Neg(e)
			}
			check(fmt.Sprintf("ScalarMul(%d)", k), got.C, new(big.Int).Exp(base, e, pk.N2))
		}
	}
}
