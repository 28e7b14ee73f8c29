package paillier

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"
)

// testWidth is Protocol 4's slot width over a demand side of 17 to 32
// members, fixed.MaskedProductBits(d) = 40 + 24 + 5.
const testWidth = 69

// slotValues draws k values for width-bit slots, mixing the edge cases (0,
// 1, 2^width−1) with random fills.
func slotValues(rng interface{ Int63() int64 }, k, width int) []*big.Int {
	vals := make([]*big.Int, k)
	for i := range vals {
		switch rng.Int63() % 5 {
		case 0:
			vals[i] = new(big.Int)
		case 1:
			vals[i] = big.NewInt(1)
		case 2:
			vals[i] = slotMaxOf(width)
		default:
			v := new(big.Int).SetInt64(rng.Int63())
			v.Lsh(v, 61).Add(v, big.NewInt(rng.Int63())) // ≤ 124 bits
			vals[i] = v.Rsh(v, uint(124-width))
		}
	}
	return vals
}

// slotMaxOf is 2^width − 1, the widest value a slot holds.
func slotMaxOf(width int) *big.Int {
	m := new(big.Int).Lsh(one, uint(width))
	return m.Sub(m, one)
}

// slotMask is 2^SlotBits − 1, the widest low slot of Protocol 3's pair.
var slotMask = slotMaxOf(SlotBits)

// slotKey is a 1024-bit key, the smallest that opens a batch of more than
// one ciphertext (5 slots at testWidth).
func slotKey(t testing.TB, seed int64) *PrivateKey {
	t.Helper()
	key, err := GenerateKey(testRand(seed), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if key.Slots(testWidth) != 5 {
		t.Fatalf("1024-bit key: Slots(%d) = %d, want 5", testWidth, key.Slots(testWidth))
	}
	return key
}

// TestDecryptSlotsMatchesDecrypt checks the packed path against the
// per-ciphertext textbook decryption at every key size: every batch size at
// testWidth, and a full batch at Protocol 4's narrowest width and at
// SlotBits; and the signed two-slot layout (Pack → Encrypt → Decrypt →
// Unpack) both ways.
func TestDecryptSlotsMatchesDecrypt(t *testing.T) {
	for _, bits := range []int{256, 512, 1024, 2048} {
		key, err := GenerateKey(testRand(int64(bits)+1), bits)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[int]int{256: 1, 512: 1, 1024: 5, 2048: 12}[bits]; key.Slots(testWidth) != want {
			t.Fatalf("bits=%d: Slots(%d) = %d, want %d", bits, testWidth, key.Slots(testWidth), want)
		}
		rng := testRand(int64(bits) + 2)
		for _, width := range []int{64, testWidth, SlotBits} {
			for k := 1; k <= key.Slots(width); k++ {
				if width != testWidth && k < key.Slots(width) {
					continue // other widths: the full batch
				}
				for round := 0; round < 3; round++ {
					vals := slotValues(rng, k, width)
					cts := make([]*Ciphertext, k)
					for i, v := range vals {
						if cts[i], err = key.Encrypt(rng, v); err != nil {
							t.Fatal(err)
						}
					}
					got, err := key.DecryptSlots(cts, width)
					if err != nil {
						t.Fatalf("bits=%d width=%d k=%d: %v", bits, width, k, err)
					}
					for i, c := range cts {
						ref, err := key.DecryptTextbook(c)
						if err != nil {
							t.Fatal(err)
						}
						if got[i].Cmp(ref) != 0 || ref.Cmp(vals[i]) != 0 {
							t.Fatalf("bits=%d width=%d k=%d slot %d: packed %s, textbook %s, plaintext %s", bits, width, k, i, got[i], ref, vals[i])
						}
					}
				}
			}
		}
		for _, hi := range []int64{0, 1, -1, 1<<63 - 1, -(1<<63 - 1)} {
			for _, lo := range slotValues(rng, 4, SlotBits) {
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

// TestDecryptSlotsRejects: a batch too large for the key or the width, an
// invalid ciphertext (named by its index) and a top slot that is negative
// or too wide all fail typed, at one slot (256 bits) and at five (1024
// bits).
func TestDecryptSlotsRejects(t *testing.T) {
	rng := testRand(62)
	wide := new(big.Int).Lsh(one, testWidth) // one bit too many for a slot
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
		for _, cts := range [][]*Ciphertext{nil, slices.Repeat([]*Ciphertext{good}, key.Slots(testWidth)+1)} {
			if _, err := key.DecryptSlots(cts, testWidth); err == nil {
				t.Errorf("%d ciphertexts accepted by %d slots", len(cts), key.Slots(testWidth))
			}
		}
		for _, width := range []int{0, -1, key.Bits() / 2} {
			if _, err := key.DecryptSlots([]*Ciphertext{good}, width); err == nil {
				t.Errorf("width %d accepted by a %d-bit key", width, key.Bits())
			}
		}
		cases := map[string][]*Ciphertext{
			"negative alone": {enc(big.NewInt(-1))},
			"wide alone":     {enc(wide)},
		}
		if key.Slots(testWidth) > 1 {
			for name, bad := range map[string]*Ciphertext{
				"nil":      nil,
				"nil C":    {},
				"zero":     {C: new(big.Int)},
				"negative": {C: big.NewInt(-5)},
				"n²":       {C: new(big.Int).Set(key.N2)},
			} {
				_, err := key.DecryptSlots([]*Ciphertext{good, bad}, testWidth)
				if !errors.Is(err, ErrInvalidCiphertext) || !strings.Contains(err.Error(), "ciphertext 1") {
					t.Errorf("%s ciphertext in slot 1: err = %v, want ErrInvalidCiphertext naming index 1", name, err)
				}
			}
			cases["negative on top"] = []*Ciphertext{enc(big.NewInt(-1)), good, good}
			cases["wide on top"] = []*Ciphertext{enc(wide), good}
		}
		for name, cts := range cases {
			if _, err := key.DecryptSlots(cts, testWidth); !errors.Is(err, ErrSlotOverflow) {
				t.Errorf("%d slots, %s: err = %v, want ErrSlotOverflow", key.Slots(testWidth), name, err)
			}
		}
	}
	for _, lo := range []*big.Int{big.NewInt(-1), new(big.Int).Lsh(one, SlotBits)} {
		if _, err := Pack(lo, big.NewInt(3)); !errors.Is(err, ErrSlotOverflow) {
			t.Errorf("Pack(lo=%s): err = %v, want ErrSlotOverflow", lo, err)
		}
	}
}

// TestSlotMargin pins the margin DecryptSlots opens a batch behind: at
// every width Protocol 4 uses, from fixed.MaskedProductBits(1) = 64 to
// MaskedProductBits(2^21) = 85, a full batch stays slotMargin bits below p
// and one more slot would not, at 512- to 2048-bit keys; 256-bit keys open
// one slot. So a wide plaintext — whose residue mod p a sender who does not
// know p cannot aim — is refused, while one that knows p can aim it
// (Enc(p+5) opens as 5), the oracle the margin keeps out of reach.
// Out-of-range values in lower slots are not refused: they borrow from or
// carry into the slots above, as DecryptSlots says.
func TestSlotMargin(t *testing.T) {
	for _, bits := range []int{256, 512, 1024, 2048} {
		key, err := GenerateKey(testRand(int64(bits)+1), bits)
		if err != nil {
			t.Fatal(err)
		}
		top := key.p.BitLen() - 1 // p ≥ 2^top
		for width := 64; width <= 85; width++ {
			k := key.Slots(width)
			switch {
			case bits == 256:
				if k != 1 {
					t.Errorf("bits=256 width=%d: %d slots, want 1", width, k)
				}
			case k < 1 || top-k*width < slotMargin || top-(k+1)*width >= slotMargin:
				t.Errorf("bits=%d width=%d: %d slots leave a %d-bit margin below p, want the most that keep ≥ %d", bits, width, k, top-k*width, slotMargin)
			}
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
	if got, err := key.DecryptSlots([]*Ciphertext{enc(aimed)}, testWidth); err != nil || got[0].Int64() != 5 {
		t.Fatalf("Enc(p+5) opened as %v, %v; want 5", got, err)
	}

	k := key.Slots(testWidth)
	seven := enc(big.NewInt(7))
	batch := func(pos int, c *Ciphertext) []*Ciphertext {
		cts := slices.Repeat([]*Ciphertext{seven}, k)
		cts[pos] = c
		return cts
	}
	refused := func(name string, cts []*Ciphertext) {
		t.Helper()
		if got, err := key.DecryptSlots(cts, testWidth); !errors.Is(err, ErrSlotOverflow) {
			t.Fatalf("%s: opened as %v, err = %v; want ErrSlotOverflow", name, got, err)
		}
	}
	lo := new(big.Int).Lsh(one, uint(k*testWidth)) // 2^345
	span := new(big.Int).Rsh(key.N, 1)
	span.Sub(span, lo)
	draw := testRand(67)
	for i := 0; i < 1000; i++ {
		w := enc(new(big.Int).Add(lo, new(big.Int).Rand(draw, span)))
		for pos := range k {
			refused(fmt.Sprintf("wide value %d at slot %d", i, pos), batch(pos, w))
		}
	}
	shift := new(big.Int).Lsh(one, testWidth)
	for i := int64(0); i < 1000; i++ {
		refused(fmt.Sprintf("%d on top", -1-i), batch(0, enc(big.NewInt(-1-i))))
		refused(fmt.Sprintf("2^%d+%d on top", testWidth, i), batch(0, enc(new(big.Int).Add(shift, big.NewInt(i)))))
	}

	// Below the top: −1 in the low slot borrows from the one above, 2^W+3
	// carries into it.
	for _, c := range []struct {
		low        *big.Int
		next, low2 *big.Int
	}{
		{big.NewInt(-1), big.NewInt(6), slotMaxOf(testWidth)},
		{new(big.Int).Add(shift, big.NewInt(3)), big.NewInt(8), big.NewInt(3)},
	} {
		want := slices.Repeat([]*big.Int{big.NewInt(7)}, k)
		want[k-2], want[k-1] = c.next, c.low2
		got, err := key.DecryptSlots(batch(k-1, enc(c.low)), testWidth)
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("low slot %s: opened as %v, %v; want %v", c.low, got, err, want)
		}
	}
}

// TestDecryptWipedKey: a wiped key answers with a typed error, not a
// division by zero, and keeps no word of its Montgomery reducer mod p².
func TestDecryptWipedKey(t *testing.T) {
	key := slotKey(t, 63)
	c, err := key.encryptInt64(testRand(63), 5)
	if err != nil {
		t.Fatal(err)
	}
	r := &key.p2red
	words := [][]big.Word{r.mw, r.rr, r.split, r.one, r.unit}
	key.Wipe()
	if _, err := key.Decrypt(c); !errors.Is(err, ErrKeyWiped) {
		t.Errorf("Decrypt with wiped key: err = %v, want ErrKeyWiped", err)
	}
	if _, err := key.DecryptSlots([]*Ciphertext{c, c}, testWidth); !errors.Is(err, ErrKeyWiped) {
		t.Errorf("DecryptSlots with wiped key: err = %v, want ErrKeyWiped", err)
	}
	for i, w := range words {
		if len(w) == 0 || slices.ContainsFunc(w, func(x big.Word) bool { return x != 0 }) {
			t.Errorf("reducer slice %d after Wipe: %x, want zero words", i, w)
		}
	}
	if r.k0 != 0 {
		t.Errorf("reducer k0 after Wipe: %x, want 0", r.k0)
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

// BenchmarkDecryptSlots measures Protocol 4's packed decryption: k
// masked-product-sized plaintexts (68 bits) under a 1024-bit key at
// testWidth, decrypted as one packed plaintext, for a lone ciphertext and a
// full batch.
func BenchmarkDecryptSlots(b *testing.B) {
	key, err := GenerateKey(testRand(8), 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := testRand(9)
	cts := make([]*Ciphertext, key.Slots(testWidth))
	for i := range cts {
		v := new(big.Int).Lsh(big.NewInt(rng.Int63()), 5)
		if cts[i], err = key.Encrypt(rng, v); err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range []int{1, len(cts)} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := key.DecryptSlots(cts[:k], testWidth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
