package paillier

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
)

// TestSignedEncodingBoundaries pins the edges of the signed embedding:
// values with |v| < n/2 round-trip, |v| = n/2 (and beyond) must be
// rejected — the strict inequality is what makes the encoding injective.
func TestSignedEncodingBoundaries(t *testing.T) {
	key := testKey(t)
	pk := &key.PublicKey
	half := new(big.Int).Rsh(pk.N, 1) // floor(n/2); n is odd, so |v| <= half-1 is legal

	maxPos := new(big.Int).Sub(half, big.NewInt(1))
	maxNeg := new(big.Int).Neg(maxPos)
	for _, v := range []*big.Int{maxPos, maxNeg, big.NewInt(0), big.NewInt(1), big.NewInt(-1)} {
		m := new(big.Int)
		if err := pk.encodeSignedInto(m, v); err != nil {
			t.Fatalf("encodeSignedInto(%v): %v", v, err)
		}
		if back := pk.decodeSignedInPlace(new(big.Int), m); back.Cmp(v) != 0 {
			t.Fatalf("round trip %v -> %v", v, back)
		}
		// The boundary values must also survive actual encryption.
		ct, err := pk.Encrypt(testRand(11), v)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", v, err)
		}
		got, err := key.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(v) != 0 {
			t.Fatalf("decrypt(%v) = %v", v, got)
		}
	}

	for _, v := range []*big.Int{
		half,
		new(big.Int).Neg(half),
		new(big.Int).Add(half, big.NewInt(1)),
		pk.N,
	} {
		if err := pk.encodeSignedInto(new(big.Int), v); !errors.Is(err, ErrMessageTooLarge) {
			t.Fatalf("encodeSignedInto(%v): err = %v, want ErrMessageTooLarge", v, err)
		}
	}
}

// TestMarshalFixedWidth pins the fixed-width ciphertext encoding: every
// ciphertext under one key encodes to exactly len(n²) magnitude bytes
// regardless of its leading zeros, and UnmarshalBinary decodes the padded
// form to the same value.
func TestMarshalFixedWidth(t *testing.T) {
	key := testKey(t)
	pk := &key.PublicKey
	width := (pk.N2.BitLen() + 7) / 8

	values := []*big.Int{big.NewInt(1), big.NewInt(255), new(big.Int).Sub(pk.N2, big.NewInt(1))}
	for i := int64(0); i < 8; i++ {
		ct, err := pk.encryptInt64(testRand(100+i), i)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, ct.C)
	}
	for _, v := range values {
		ct := &Ciphertext{C: v}
		fixed, err := ct.AppendFixed(nil, pk)
		if err != nil {
			t.Fatalf("AppendFixed(%v): %v", v, err)
		}
		if len(fixed) != 4+width {
			t.Fatalf("fixed encoding of %v is %d bytes, want %d", v, len(fixed), 4+width)
		}
		var back Ciphertext
		if err := back.UnmarshalBinary(fixed); err != nil {
			t.Fatalf("decode fixed: %v", err)
		}
		if back.C.Cmp(v) != 0 {
			t.Fatalf("fixed round trip %v -> %v", v, back.C)
		}
	}

	// A value wider than n² cannot be a ciphertext; the encoder must refuse
	// rather than truncate.
	over := &Ciphertext{C: new(big.Int).Lsh(big.NewInt(1), uint(8*width))}
	if _, err := over.AppendFixed(nil, pk); err == nil {
		t.Fatal("over-wide ciphertext accepted")
	}
	if _, err := (&Ciphertext{C: big.NewInt(1)}).AppendFixed(nil, nil); err == nil {
		t.Fatal("nil key accepted")
	}
}

// FuzzCiphertextUnmarshal checks the ciphertext wire decoder never panics
// and that every accepted value re-encodes to bytes that decode to it again;
// AppendFixed may refuse only a value wider than the key's n².
func FuzzCiphertextUnmarshal(f *testing.F) {
	key, err := GenerateKey(testRand(12), 128)
	if err != nil {
		f.Fatal(err)
	}
	pk := &key.PublicKey
	ct, err := key.encryptInt64(testRand(13), 42)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := ct.AppendFixed(nil, pk)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var c Ciphertext
		if err := c.UnmarshalBinary(raw); err != nil {
			return
		}
		out, err := c.AppendFixed(nil, pk)
		if err != nil {
			if (c.C.BitLen()+7)/8 <= pk.FixedLen()-4 {
				t.Fatalf("re-encode accepted ciphertext: %v", err)
			}
			return
		}
		var back Ciphertext
		if err := back.UnmarshalBinary(out); err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if back.C.Cmp(c.C) != 0 {
			t.Fatalf("round trip changed value: %v vs %v", back.C, c.C)
		}
	})
}

// FuzzCiphertextRoundTrip drives the encrypt -> marshal -> unmarshal ->
// decrypt path with arbitrary plaintext bytes.
func FuzzCiphertextRoundTrip(f *testing.F) {
	key, err := GenerateKey(testRand(14), 128)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{1}, false)
	f.Add([]byte{0xff, 0xff, 0xff}, true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, mag []byte, neg bool) {
		m := new(big.Int).SetBytes(mag)
		if neg {
			m.Neg(m)
		}
		ct, err := key.Encrypt(testRand(15), m)
		if err != nil {
			// Out of the signed embedding range: must be the sentinel.
			if !errors.Is(err, ErrMessageTooLarge) {
				t.Fatalf("Encrypt(%v): %v", m, err)
			}
			return
		}
		wire, err := ct.AppendFixed(nil, &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		var back Ciphertext
		if err := back.UnmarshalBinary(wire); err != nil {
			t.Fatalf("unmarshal own encoding: %v", err)
		}
		wire2, err := back.AppendFixed(nil, &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatal("marshal not canonical")
		}
		got, err := key.Decrypt(&back)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("decrypt = %v, want %v", got, m)
		}
	})
}

// slotPlaintexts decodes FuzzDecryptSlots' bytes: the first picks the slot
// width 64 + b mod 61 — every width in [64, 124] — the second the batch
// size 1 + b mod Slots(width), then each plaintext is a header byte — the
// sign in the top bit, a magnitude length of up to 63 bytes in the low six
// — and its big-endian magnitude, cut short where the input ends.
func slotPlaintexts(raw []byte, pk *PublicKey) (int, []*big.Int) {
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return b
	}
	width := 64 + int(next())%61
	vals := make([]*big.Int, 1+int(next())%pk.Slots(width))
	for i := range vals {
		h := next()
		n := min(int(h&0x3f), len(raw))
		vals[i] = new(big.Int).SetBytes(raw[:n])
		raw = raw[n:]
		if h&0x80 != 0 {
			vals[i].Neg(vals[i])
		}
	}
	return width, vals
}

// appendSlotPlaintexts is slotPlaintexts' inverse, for the seed corpus.
func appendSlotPlaintexts(width int, vals ...*big.Int) []byte {
	out := []byte{byte(width - 64), byte(len(vals) - 1)}
	for _, v := range vals {
		mag := v.Bytes()
		h := byte(len(mag))
		if v.Sign() < 0 {
			h |= 0x80
		}
		out = append(append(out, h), mag...)
	}
	return out
}

// FuzzDecryptSlots checks the packed decryption against the textbook one
// under a 1024-bit key (3 to 5 slots) at every width in [64, 124]: a batch
// whose plaintexts all fit their slots opens to exactly them; a batch whose
// top plaintext is negative or at least 2^width over in-range lower slots
// fails with ErrSlotOverflow; any other batch — lower slots out of range
// borrow from or carry into the ones above — fails typed or opens to k
// in-range slots, and never panics.
func FuzzDecryptSlots(f *testing.F) {
	key, err := GenerateKey(testRand(16), 1024)
	if err != nil {
		f.Fatal(err)
	}
	for _, width := range []int{64, 69, 85, SlotBits} {
		full, wide := slotMaxOf(width), new(big.Int).Lsh(one, uint(width))
		for _, v := range []*big.Int{new(big.Int), big.NewInt(1), full, wide, big.NewInt(-1)} {
			f.Add(appendSlotPlaintexts(width, v))
			f.Add(appendSlotPlaintexts(width, v, big.NewInt(1), full))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		width, vals := slotPlaintexts(raw, &key.PublicKey)
		inSlot := func(v *big.Int) bool { return v.Sign() >= 0 && v.BitLen() <= width }
		cts := make([]*Ciphertext, len(vals))
		lowInSlot := true
		for i, v := range vals {
			var err error
			if cts[i], err = key.Encrypt(testRand(17), v); err != nil {
				t.Fatalf("Encrypt(%v): %v", v, err)
			}
			lowInSlot = lowInSlot && (i == 0 || inSlot(v))
		}
		got, err := key.DecryptSlots(cts, width)
		switch {
		case lowInSlot && inSlot(vals[0]):
			if err != nil {
				t.Fatalf("DecryptSlots(%v, %d): %v", vals, width, err)
			}
			for i, c := range cts {
				ref, err := key.DecryptTextbook(c)
				if err != nil {
					t.Fatal(err)
				}
				if got[i].Cmp(ref) != 0 || ref.Cmp(vals[i]) != 0 {
					t.Fatalf("width %d slot %d: packed %v, textbook %v, plaintext %v", width, i, got[i], ref, vals[i])
				}
			}
		case lowInSlot:
			if !errors.Is(err, ErrSlotOverflow) {
				t.Fatalf("width %d, top plaintext %v: opened as %v, err = %v; want ErrSlotOverflow", width, vals[0], got, err)
			}
		case err != nil:
			if !errors.Is(err, ErrSlotOverflow) {
				t.Fatalf("DecryptSlots(%v, %d): untyped error %v", vals, width, err)
			}
		default:
			if len(got) != len(vals) {
				t.Fatalf("DecryptSlots(%v, %d): %d values for %d ciphertexts", vals, width, len(got), len(vals))
			}
			for i, v := range got {
				if !inSlot(v) {
					t.Fatalf("DecryptSlots(%v, %d): slot %d opened as %v", vals, width, i, v)
				}
			}
		}
	})
}
