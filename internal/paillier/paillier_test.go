package paillier

import (
	"context"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// testRand returns a deterministic randomness source for repeatable tests.
func testRand(seed int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed))
}

// testKey generates a small (fast) key for unit tests.
func testKey(t testing.TB) *PrivateKey {
	t.Helper()
	key, err := GenerateKey(testRand(1), 256)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return key
}

// DecryptTextbook recovers the plaintext via the original L-function method
// mod n², sharing nothing with the CRT routine but the key: the reference
// the packed decryption is checked against.
func (sk *PrivateKey) DecryptTextbook(c *Ciphertext) (*big.Int, error) {
	if err := sk.validate(c); err != nil {
		return nil, err
	}
	x := new(big.Int).Exp(c.C, sk.lambda, sk.N2)
	m := new(big.Int).Div(x.Sub(x, one), sk.N) // L(x) = (x−1)/n
	m.Mul(m, sk.mu)
	m.Mod(m, sk.N)
	return sk.decodeSignedInPlace(new(big.Int), m), nil
}

// encryptInt64 encrypts a small signed plaintext.
func (pk *PublicKey) encryptInt64(random io.Reader, v int64) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(v))
}

// decryptInt64 decrypts and narrows to int64, failing loudly on overflow.
func (sk *PrivateKey) decryptInt64(c *Ciphertext) (int64, error) {
	m, err := sk.Decrypt(c)
	if err != nil {
		return 0, err
	}
	if !m.IsInt64() {
		return 0, fmt.Errorf("paillier: plaintext %s overflows int64", m)
	}
	return m.Int64(), nil
}

func TestGenerateKeyRejectsTinyModulus(t *testing.T) {
	if _, err := GenerateKey(testRand(1), 32); err == nil {
		t.Fatal("want error for 32-bit modulus")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := testKey(t)
	rng := testRand(2)
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40)} {
		c, err := key.encryptInt64(rng, v)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", v, err)
		}
		got, err := key.decryptInt64(c)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
}

func TestCRTMatchesTextbookDecrypt(t *testing.T) {
	key := testKey(t)
	rng := testRand(3)
	for i := 0; i < 25; i++ {
		v := big.NewInt(rng.Int63() - (1 << 62))
		c, err := key.Encrypt(rng, v)
		if err != nil {
			t.Fatal(err)
		}
		crt, err := key.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		textbook, err := key.DecryptTextbook(c)
		if err != nil {
			t.Fatal(err)
		}
		if crt.Cmp(textbook) != 0 {
			t.Fatalf("CRT %s != textbook %s", crt, textbook)
		}
		if crt.Cmp(v) != 0 {
			t.Fatalf("decrypt %s != plaintext %s", crt, v)
		}
	}
}

func TestHomomorphicAddProperty(t *testing.T) {
	key := testKey(t)
	rng := testRand(4)
	if err := quick.Check(func(a, b int32) bool {
		ca, err := key.encryptInt64(rng, int64(a))
		if err != nil {
			return false
		}
		cb, err := key.encryptInt64(rng, int64(b))
		if err != nil {
			return false
		}
		sum, err := key.Add(ca, cb)
		if err != nil {
			return false
		}
		got, err := key.decryptInt64(sum)
		return err == nil && got == int64(a)+int64(b)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHomomorphicScalarMulProperty(t *testing.T) {
	key := testKey(t)
	rng := testRand(5)
	if err := quick.Check(func(a int32, k int16) bool {
		ca, err := key.encryptInt64(rng, int64(a))
		if err != nil {
			return false
		}
		ck, err := key.ScalarMul(ca, big.NewInt(int64(k)))
		if err != nil {
			return false
		}
		got, err := key.decryptInt64(ck)
		return err == nil && got == int64(a)*int64(k)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddPlain(t *testing.T) {
	key := testKey(t)
	rng := testRand(6)
	c, err := key.encryptInt64(rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := key.AddPlain(c, big.NewInt(-250))
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.decryptInt64(c2)
	if err != nil {
		t.Fatal(err)
	}
	if got != -150 {
		t.Errorf("AddPlain: got %d, want -150", got)
	}
}

func TestSemanticSecuritySmokeTest(t *testing.T) {
	// Two encryptions of the same value must differ (probabilistic
	// encryption).
	key := testKey(t)
	rng := testRand(8)
	c1, _ := key.encryptInt64(rng, 5)
	c2, _ := key.encryptInt64(rng, 5)
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("two encryptions of 5 are identical")
	}
}

func TestSignedEncoding(t *testing.T) {
	key := testKey(t)
	max := new(big.Int).Rsh(key.N, 1)
	almostMax := new(big.Int).Sub(max, big.NewInt(1))
	for _, v := range []*big.Int{almostMax, new(big.Int).Neg(almostMax)} {
		enc := new(big.Int)
		if err := key.encodeSignedInto(enc, v); err != nil {
			t.Fatalf("encodeSignedInto(%s): %v", v, err)
		}
		dec := key.decodeSignedInPlace(new(big.Int), enc)
		if dec.Cmp(v) != 0 {
			t.Errorf("signed round trip %s -> %s", v, dec)
		}
	}
	if err := key.encodeSignedInto(new(big.Int), max); err == nil {
		t.Error("encodeSignedInto(n/2): want ErrMessageTooLarge")
	}
}

func TestMessageTooLarge(t *testing.T) {
	key := testKey(t)
	tooBig := new(big.Int).Set(key.N)
	if _, err := key.Encrypt(testRand(9), tooBig); err == nil {
		t.Error("Encrypt(n): want error")
	}
}

func TestInvalidCiphertexts(t *testing.T) {
	key := testKey(t)
	bad := []*Ciphertext{
		nil,
		{C: nil},
		{C: big.NewInt(0)},
		{C: new(big.Int).Set(key.N2)},
		{C: new(big.Int).Neg(big.NewInt(5))},
	}
	for i, c := range bad {
		if _, err := key.Decrypt(c); err == nil {
			t.Errorf("case %d: Decrypt accepted invalid ciphertext", i)
		}
	}
}

func TestEncryptWithFactorMatchesEncrypt(t *testing.T) {
	key := testKey(t)
	rng := testRand(10)
	f, err := key.BlindingFactor(rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := key.EncryptWithFactor(big.NewInt(-31337), f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.decryptInt64(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != -31337 {
		t.Errorf("EncryptWithFactor round trip: got %d", got)
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	key := testKey(t)
	data, err := key.PublicKey.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pk PublicKey
	if err := pk.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if pk.N.Cmp(key.N) != 0 || pk.N2.Cmp(key.N2) != 0 {
		t.Error("public key did not round trip")
	}
	// A ciphertext produced under the decoded key must decrypt correctly.
	c, err := pk.encryptInt64(testRand(11), 99)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.decryptInt64(c)
	if err != nil || got != 99 {
		t.Errorf("cross-key decrypt: %d, %v", got, err)
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	key := testKey(t)
	c, err := key.encryptInt64(testRand(13), 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.AppendFixed(nil, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	var c2 Ciphertext
	if err := c2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if c2.C.Cmp(c.C) != 0 {
		t.Error("ciphertext did not round trip")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var pk PublicKey
	if err := pk.UnmarshalBinary(nil); err == nil {
		t.Error("UnmarshalBinary(nil): want error")
	}
	if err := pk.UnmarshalBinary([]byte{0, 0, 0, 9, 1}); err == nil {
		t.Error("UnmarshalBinary(truncated): want error")
	}
	var c Ciphertext
	if err := c.UnmarshalBinary([]byte{0, 0}); err == nil {
		t.Error("ciphertext UnmarshalBinary(short): want error")
	}
}

func TestNoncePool(t *testing.T) {
	key := testKey(t)
	rf := NewRefill(nil, testRand(14))
	defer rf.Wait()

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		f, err := key.Pool().Take(ctx, rf, i/4)
		if err != nil {
			t.Fatalf("Take %d: %v", i, err)
		}
		c, err := key.EncryptWithFactor(big.NewInt(int64(i)), f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := key.decryptInt64(c)
		if err != nil || got != int64(i) {
			t.Fatalf("pool factor %d: decrypt got %d, %v", i, got, err)
		}
	}
}

func TestNoncePoolCanceledContext(t *testing.T) {
	key := testKey(t)
	rf := NewRefill(nil, testRand(15))
	// An empty pool and a cancelled context: the inline path must respect ctx.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := key.Pool().Take(ctx, rf, 0); err == nil {
		t.Error("Take with canceled ctx on empty pool: want error")
	}
	rf.Wait()
}

func BenchmarkEncrypt(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		key, err := GenerateKey(testRand(20), bits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName(bits), func(b *testing.B) {
			rng := testRand(21)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := key.encryptInt64(rng, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncryptWithFactor(b *testing.B) {
	key, err := GenerateKey(testRand(22), 2048)
	if err != nil {
		b.Fatal(err)
	}
	f, err := key.BlindingFactor(testRand(23))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.EncryptWithFactor(big.NewInt(int64(i)), f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	key, err := GenerateKey(testRand(22), 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := testRand(23)
	x, err := key.encryptInt64(rng, 5)
	if err != nil {
		b.Fatal(err)
	}
	y, err := key.encryptInt64(rng, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Add(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptCRT(b *testing.B) {
	key, err := GenerateKey(testRand(24), 2048)
	if err != nil {
		b.Fatal(err)
	}
	c, err := key.encryptInt64(testRand(25), 123456)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptTextbook(b *testing.B) {
	key, err := GenerateKey(testRand(24), 2048)
	if err != nil {
		b.Fatal(err)
	}
	c, err := key.encryptInt64(testRand(25), 123456)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.DecryptTextbook(c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(bits int) string {
	switch bits {
	case 512:
		return "512bit"
	case 1024:
		return "1024bit"
	default:
		return "2048bit"
	}
}
