package paillier

import (
	"errors"
	"fmt"
	"math/big"
)

// Slot layout: a plaintext is cut into fixed-width slots so that values
// known to be narrow travel in one ciphertext (Pack) and decrypt in one
// exponentiation modulo p² (DecryptSlots). Every slot but the top one holds
// a non-negative value below 2^width; the top slot keeps the plaintext's
// sign. All slot arithmetic lives in this file.

// SlotBits is the slot width of Protocol 3's packed pair (Pack, Unpack),
// which is wire format on the pricing ring (TestSlotLayoutABI): its low
// slot carries a count and sums of int64 terms, well inside 124 bits, and
// its top slot the signed sum. Protocol 4's masked products are opened at
// the narrower width their public bound gives (fixed.MaskedProductBits).
const SlotBits = 124

// slotMargin is the gap DecryptSlots keeps between a full batch and p. It
// opens a batch modulo p alone and accepts the residue V mod p only below
// 2^(k·width) ≤ p/2^slotMargin, so a wide plaintext chosen without
// knowledge of p is accepted with probability at most 2^-slotMargin.
const slotMargin = 128

// ErrSlotOverflow is returned when a value does not fit its slot: a packed
// plaintext that decrypts negative or wider than the slots it was packed
// into, or a low-slot value outside [0, 2^SlotBits).
var ErrSlotOverflow = errors.New("paillier: value overflows its plaintext slot")

// Slots reports how many width-bit slots DecryptSlots opens in one batch
// under pk: as many as fit below p ≥ 2^(⌊bits/2⌋−1) with slotMargin bits to
// spare, and at least one — at Protocol 4's 69-bit width 1 at 256- and
// 512-bit keys, 5 at 1024, 12 at 2048. It is 0 for a width that is not
// positive or that p may be narrower than.
func (pk *PublicKey) Slots(width int) int {
	top := pk.Bits()/2 - 1 // log₂ of p's floor
	if width < 1 || top < width {
		return 0
	}
	return max(1, (top-slotMargin)/width)
}

// Pack lays lo in the low slot and the signed hi in the slot above it:
// hi·2^SlotBits + lo. Packed plaintexts add slot-wise — homomorphically too
// — while the low sums stay below 2^SlotBits; Unpack inverts it on the sum.
func Pack(lo, hi *big.Int) (*big.Int, error) {
	if lo.Sign() < 0 || lo.BitLen() > SlotBits {
		return nil, ErrSlotOverflow
	}
	m := new(big.Int).Lsh(hi, SlotBits)
	return m.Add(m, lo), nil
}

// Unpack splits a (sum of) Pack plaintexts back into the low-slot value and
// the signed value above it.
func Unpack(m *big.Int) (lo, hi *big.Int) {
	hi = new(big.Int).Rsh(m, SlotBits) // floors, so lo lands in [0, 2^SlotBits)
	lo = new(big.Int).Lsh(hi, SlotBits)
	return lo.Sub(m, lo), hi
}

// DecryptSlots decrypts up to Slots(width) ciphertexts, each carrying a
// non-negative plaintext below 2^width, for the price of one exponentiation
// modulo p² plus width Montgomery squarings per extra ciphertext: the key
// holder packs them into one plaintext itself by Horner's rule (fold) and
// opens it modulo p alone, which holds every batch Slots allows (see
// slotMargin). Plaintexts come back in input order. A sender whose value
// overflows its slot corrupts the slots above it — undetectable unless the
// top slot overflows too, which, like a negative plaintext (p − |v| mod p
// is as wide as p), fails with ErrSlotOverflow.
func (sk *PrivateKey) DecryptSlots(cts []*Ciphertext, width int) ([]*big.Int, error) {
	k := len(cts)
	if k == 0 || k > sk.Slots(width) {
		return nil, fmt.Errorf("paillier: %d ciphertexts for %d slots of %d bits", k, sk.Slots(width), width)
	}
	s := GetScratch()
	defer s.Put()
	m, err := sk.residueModP(s, cts, width)
	if err != nil {
		return nil, err
	}
	if m.BitLen() > k*width { // too wide, or negative
		return nil, ErrSlotOverflow
	}
	mask := s.Int().Lsh(one, uint(width))
	mask.Sub(mask, one)
	out := make([]*big.Int, k)
	for j := k - 1; j >= 0; j-- {
		out[j] = new(big.Int).And(m, mask)
		m.Rsh(m, uint(width))
	}
	return out, nil
}

// fold returns Π_j c_j^(2^(width·(k−1−j))) mod p² — Horner's rule acc ←
// acc^(2^width)·c_j — on the key's Montgomery reducer mod p²: each
// ciphertext, reduced mod p², enters the form with one product and joins
// after width squarings, and the result leaves the form once. A math/big
// Exp per step would pay its own Montgomery set-up every time, which costs
// more than the squarings.
func (sk *PrivateKey) fold(s *Scratch, cts []*Ciphertext, width int) *big.Int {
	r := &sk.p2red
	n := len(r.mw)
	acc, c, t := s.words(n), s.words(n), s.words(2*n)
	red, quo := s.Int(), s.Int()
	for j, ct := range cts {
		quo.QuoRem(ct.C, sk.p2, red)
		r.mul(c, load(c, red), r.rr, t)
		if j == 0 {
			copy(acc, c)
			continue
		}
		for range width {
			r.mul(acc, acc, acc, t)
		}
		r.mul(acc, acc, c, t)
	}
	return r.exit(acc, t)
}
