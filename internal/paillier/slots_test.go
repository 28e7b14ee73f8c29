package paillier

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"
)

// slotValues draws k slot values mixing the edge cases (0, 1, 2^W−1) with
// random fills.
func slotValues(rng interface{ Int63() int64 }, k int) []*big.Int {
	vals := make([]*big.Int, k)
	for i := range vals {
		switch rng.Int63() % 5 {
		case 0:
			vals[i] = new(big.Int)
		case 1:
			vals[i] = big.NewInt(1)
		case 2:
			vals[i] = new(big.Int).Set(slotMask)
		default:
			v := new(big.Int).SetInt64(rng.Int63())
			v.Lsh(v, 61).Add(v, big.NewInt(rng.Int63())) // ≤ 124 bits
			vals[i] = v
		}
	}
	return vals
}

// slotKey is a 1024-bit key, the smallest that opens a batch of more than
// one ciphertext (3 slots).
func slotKey(t testing.TB, seed int64) *PrivateKey {
	t.Helper()
	key, err := GenerateKey(testRand(seed), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if key.Slots() != 3 {
		t.Fatalf("1024-bit key: Slots = %d, want 3", key.Slots())
	}
	return key
}

// TestDecryptSlotsMatchesDecrypt checks the packed path against the
// per-ciphertext textbook decryption at every key size and batch size, and
// the signed two-slot layout (Pack → Encrypt → Decrypt → Unpack) both ways.
func TestDecryptSlotsMatchesDecrypt(t *testing.T) {
	for _, bits := range []int{256, 512, 1024, 2048} {
		key, err := GenerateKey(testRand(int64(bits)+1), bits)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[int]int{256: 1, 512: 1, 1024: 3, 2048: 7}[bits]; key.Slots() != want {
			t.Fatalf("bits=%d: Slots = %d, want %d", bits, key.Slots(), want)
		}
		rng := testRand(int64(bits) + 2)
		for k := 1; k <= key.Slots(); k++ {
			for round := 0; round < 3; round++ {
				vals := slotValues(rng, k)
				cts := make([]*Ciphertext, k)
				for i, v := range vals {
					if cts[i], err = key.Encrypt(rng, v); err != nil {
						t.Fatal(err)
					}
				}
				got, err := key.DecryptSlots(cts)
				if err != nil {
					t.Fatalf("bits=%d k=%d: %v", bits, k, err)
				}
				for i, c := range cts {
					ref, err := key.DecryptTextbook(c)
					if err != nil {
						t.Fatal(err)
					}
					if got[i].Cmp(ref) != 0 || ref.Cmp(vals[i]) != 0 {
						t.Fatalf("bits=%d k=%d slot %d: packed %s, textbook %s, plaintext %s", bits, k, i, got[i], ref, vals[i])
					}
				}
			}
		}
		for _, hi := range []int64{0, 1, -1, 1<<63 - 1, -(1<<63 - 1)} {
			for _, lo := range slotValues(rng, 4) {
				packed, err := Pack(lo, big.NewInt(hi))
				if err != nil {
					t.Fatal(err)
				}
				c, err := key.Encrypt(rng, packed)
				if err != nil {
					t.Fatal(err)
				}
				m, err := key.Decrypt(c)
				if err != nil {
					t.Fatal(err)
				}
				if ref, _ := key.DecryptTextbook(c); m.Cmp(ref) != 0 {
					t.Fatalf("bits=%d: Decrypt %s, textbook %s", bits, m, ref)
				}
				gotLo, gotHi := Unpack(m)
				if gotLo.Cmp(lo) != 0 || !gotHi.IsInt64() || gotHi.Int64() != hi {
					t.Fatalf("bits=%d: Unpack(Pack(%s, %d)) = (%s, %s)", bits, lo, hi, gotLo, gotHi)
				}
			}
		}
	}
}

// TestPackedSumsAddSlotwise is the property Protocol 3 rests on: the
// homomorphic sum of packed pairs unpacks to the pair of sums, whatever the
// signs of the top-slot terms.
func TestPackedSumsAddSlotwise(t *testing.T) {
	key := testKey(t)
	rng := testRand(61)
	var acc *Ciphertext
	sumLo, sumHi := new(big.Int), new(big.Int)
	for i := 0; i < 12; i++ {
		lo := big.NewInt(rng.Int63())
		hi := big.NewInt(rng.Int63() - 1<<62)
		sumLo.Add(sumLo, lo)
		sumHi.Add(sumHi, hi)
		packed, err := Pack(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		c, err := key.Encrypt(rng, packed)
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = c
		} else if err := key.AddInPlace(acc, c); err != nil {
			t.Fatal(err)
		}
	}
	m, err := key.Decrypt(acc)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := Unpack(m); lo.Cmp(sumLo) != 0 || hi.Cmp(sumHi) != 0 {
		t.Fatalf("Unpack(Σ) = (%s, %s), want (%s, %s)", lo, hi, sumLo, sumHi)
	}
}

// TestDecryptSlotsRejects: a batch too large for the key, an invalid
// ciphertext (named by its index) and a top slot that is negative or too
// wide all fail typed, at one slot (256 bits) and at three (1024 bits).
func TestDecryptSlotsRejects(t *testing.T) {
	rng := testRand(62)
	wide := new(big.Int).Lsh(one, SlotBits) // 2^W: one bit too many for a slot
	for _, key := range []*PrivateKey{testKey(t), slotKey(t, 64)} {
		enc := func(v *big.Int) *Ciphertext {
			t.Helper()
			c, err := key.Encrypt(rng, v)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		good := enc(big.NewInt(7))
		for _, cts := range [][]*Ciphertext{nil, slices.Repeat([]*Ciphertext{good}, key.Slots()+1)} {
			if _, err := key.DecryptSlots(cts); err == nil {
				t.Errorf("%d ciphertexts accepted by a %d-slot key", len(cts), key.Slots())
			}
		}
		cases := map[string][]*Ciphertext{
			"negative alone": {enc(big.NewInt(-1))},
			"wide alone":     {enc(wide)},
		}
		if key.Slots() > 1 {
			for name, bad := range map[string]*Ciphertext{
				"nil":      nil,
				"nil C":    {},
				"zero":     {C: new(big.Int)},
				"negative": {C: big.NewInt(-5)},
				"n²":       {C: new(big.Int).Set(key.N2)},
			} {
				_, err := key.DecryptSlots([]*Ciphertext{good, bad})
				if !errors.Is(err, ErrInvalidCiphertext) || !strings.Contains(err.Error(), "ciphertext 1") {
					t.Errorf("%s ciphertext in slot 1: err = %v, want ErrInvalidCiphertext naming index 1", name, err)
				}
			}
			cases["negative on top"] = []*Ciphertext{enc(big.NewInt(-1)), good, good}
			cases["wide on top"] = []*Ciphertext{enc(wide), good}
		}
		for name, cts := range cases {
			if _, err := key.DecryptSlots(cts); !errors.Is(err, ErrSlotOverflow) {
				t.Errorf("%d slots, %s: err = %v, want ErrSlotOverflow", key.Slots(), name, err)
			}
		}
	}
	for _, lo := range []*big.Int{big.NewInt(-1), wide} {
		if _, err := Pack(lo, big.NewInt(3)); !errors.Is(err, ErrSlotOverflow) {
			t.Errorf("Pack(lo=%s): err = %v, want ErrSlotOverflow", lo, err)
		}
	}
}

// TestSlotMargin pins the margin DecryptSlots opens a batch behind: a full
// batch stays slotMargin bits below p, so a wide plaintext — whose residue
// mod p a sender who does not know p cannot aim — is refused, while one that
// knows p can aim it (Enc(p+5) opens as 5), the oracle the margin keeps out
// of reach. Out-of-range values in lower slots are not refused: they borrow
// from or carry into the slots above, as DecryptSlots says.
func TestSlotMargin(t *testing.T) {
	for _, bits := range []int{256, 512, 1024, 2048} {
		key, err := GenerateKey(testRand(int64(bits)+1), bits)
		if err != nil {
			t.Fatal(err)
		}
		room := key.p.BitLen() - 1 - key.Slots()*SlotBits // p ≥ 2^(BitLen−1)
		if bits == 256 {
			if key.Slots() != 1 || room != 3 {
				t.Errorf("bits=256: %d slots, %d-bit margin; want 1 slot, 3 bits", key.Slots(), room)
			}
		} else if room < slotMargin {
			t.Errorf("bits=%d: %d slots leave a %d-bit margin below p, want ≥ %d", bits, key.Slots(), room, slotMargin)
		}
	}

	key := slotKey(t, 65)
	rng := testRand(66)
	enc := func(v *big.Int) *Ciphertext {
		t.Helper()
		c, err := key.Encrypt(rng, v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	aimed := new(big.Int).Add(key.p, big.NewInt(5))
	if got, err := key.DecryptSlots([]*Ciphertext{enc(aimed)}); err != nil || got[0].Int64() != 5 {
		t.Fatalf("Enc(p+5) opened as %v, %v; want 5", got, err)
	}

	k := key.Slots()
	seven := enc(big.NewInt(7))
	batch := func(pos int, c *Ciphertext) []*Ciphertext {
		cts := []*Ciphertext{seven, seven, seven}[:k]
		cts[pos] = c
		return cts
	}
	refused := func(name string, cts []*Ciphertext) {
		t.Helper()
		if got, err := key.DecryptSlots(cts); !errors.Is(err, ErrSlotOverflow) {
			t.Fatalf("%s: opened as %v, err = %v; want ErrSlotOverflow", name, got, err)
		}
	}
	lo := new(big.Int).Lsh(one, uint(k*SlotBits)) // 2^372
	span := new(big.Int).Rsh(key.N, 1)
	span.Sub(span, lo)
	draw := testRand(67)
	for i := 0; i < 1000; i++ {
		w := enc(new(big.Int).Add(lo, new(big.Int).Rand(draw, span)))
		for pos := range k {
			refused(fmt.Sprintf("wide value %d at slot %d", i, pos), batch(pos, w))
		}
	}
	for i := int64(0); i < 1000; i++ {
		refused(fmt.Sprintf("%d on top", -1-i), batch(0, enc(big.NewInt(-1-i))))
		refused(fmt.Sprintf("2^124+%d on top", i), batch(0, enc(new(big.Int).Add(slotShift, big.NewInt(i)))))
	}

	// Below the top: −1 in the low slot borrows from the one above, 2^124+3
	// carries into it.
	for _, c := range []struct {
		low  *big.Int
		want []*big.Int
	}{
		{big.NewInt(-1), []*big.Int{big.NewInt(7), big.NewInt(6), slotMask}},
		{new(big.Int).Add(slotShift, big.NewInt(3)), []*big.Int{big.NewInt(7), big.NewInt(8), big.NewInt(3)}},
	} {
		got, err := key.DecryptSlots(batch(k-1, enc(c.low)))
		if err != nil || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("low slot %s: opened as %v, %v; want %v", c.low, got, err, c.want)
		}
	}
}

// TestDecryptWipedKey: a wiped key answers with a typed error, not a
// division by zero.
func TestDecryptWipedKey(t *testing.T) {
	key := slotKey(t, 63)
	c, err := key.encryptInt64(testRand(63), 5)
	if err != nil {
		t.Fatal(err)
	}
	key.Wipe()
	if _, err := key.Decrypt(c); !errors.Is(err, ErrKeyWiped) {
		t.Errorf("Decrypt with wiped key: err = %v, want ErrKeyWiped", err)
	}
	if _, err := key.DecryptSlots([]*Ciphertext{c, c}); !errors.Is(err, ErrKeyWiped) {
		t.Errorf("DecryptSlots with wiped key: err = %v, want ErrKeyWiped", err)
	}
}

// TestSlotLayoutABI pins the slot layout, which is wire format on the
// pricing ring: the packed plaintext of (k, term) and, for the pair the
// 128-bit ABI key can hold, its residue mod n. Goldens follow from the
// definition term·2^124 + k by hand.
func TestSlotLayoutABI(t *testing.T) {
	if SlotBits != 124 {
		t.Fatalf("SlotBits = %d; the goldens below are for 124", SlotBits)
	}
	pk := &abiKey(t).PublicKey
	for _, g := range []struct {
		lo, hi  *big.Int
		want    string // signed hex of the packed plaintext
		residue string // hex of its encoding under the ABI key, if it fits
	}{
		{big.NewInt(1), big.NewInt(-1),
			"-" + strings.Repeat("f", 31), "efffffffffffff720000000000001322"},
		{slotMask, big.NewInt(1<<63 - 1),
			"7" + strings.Repeat("f", 46), ""},
	} {
		m, err := Pack(g.lo, g.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Text(16); got != g.want {
			t.Errorf("Pack(%s, %s) = %s, want %s", g.lo, g.hi, got, g.want)
		}
		if g.residue == "" {
			continue
		}
		em := new(big.Int)
		if err := pk.encodeSignedInto(em, m); err != nil {
			t.Fatal(err)
		}
		if got := em.Text(16); got != g.residue {
			t.Errorf("residue of Pack(%s, %s) = %s, want %s", g.lo, g.hi, got, g.residue)
		}
	}
}

// BenchmarkDecryptSlots is the measurement SlotBits was picked with: k
// Protocol-4-sized plaintexts (109 bits) under a 1024-bit key, decrypted as
// one packed plaintext, for a lone ciphertext and a full batch.
func BenchmarkDecryptSlots(b *testing.B) {
	key, err := GenerateKey(testRand(8), 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := testRand(9)
	cts := make([]*Ciphertext, key.Slots())
	for i := range cts {
		v := new(big.Int).Lsh(big.NewInt(rng.Int63()), 46)
		if cts[i], err = key.Encrypt(rng, v); err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range []int{1, key.Slots()} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := key.DecryptSlots(cts[:k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
