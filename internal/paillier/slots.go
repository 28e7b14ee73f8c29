package paillier

import (
	"errors"
	"fmt"
	"math/big"
)

// Slot layout: a plaintext is cut into SlotBits-wide slots so that values
// known to be narrow travel in one ciphertext (Pack) and decrypt in one CRT
// exponentiation pair (DecryptSlots). Every slot but the top one holds a
// non-negative value < 2^SlotBits; the top slot keeps the plaintext's sign.
// All slot arithmetic lives in this file.

// SlotBits is the slot width W. The widest value the protocols put in a
// slot is Protocol 4's masked product E_b·round(10^12/|sn_j|): E_b ≤
// n·(2^63−1) and the reciprocal is < 2^40, so it is < 2^(103+⌈log₂ n⌉) and
// 124 bits cover coalitions to 2^21 members (Protocol 3's sums of int64
// terms are narrower still). The exact value is a measurement, not a round
// number: packing shifts by raising to 2^W, math/big walks that exponent a
// whole word at a time, and 2^128 is a three-word exponent where anything
// in [2^64, 2^127] is two (BenchmarkDecryptSlots, 1024-bit key: 7 slots in
// 1.37 ms at W = 124 against 1.73 ms at W = 128, where an eighth no longer
// fits).
const SlotBits = 124

// ErrSlotOverflow is returned when a value does not fit its slot: a packed
// plaintext that decrypts negative or wider than the slots it was packed
// into, or a low-slot value outside [0, 2^SlotBits).
var ErrSlotOverflow = errors.New("paillier: value overflows its plaintext slot")

var (
	slotShift = new(big.Int).Lsh(one, SlotBits) // 2^W, the Horner exponent
	slotMask  = new(big.Int).Sub(slotShift, one)
)

// Slots reports how many slots one plaintext under pk holds: 2 at 256-bit
// keys, 4 at 512, 8 at 1024, 16 at 2048. The slots stay below n/2, so a
// negative plaintext (the residue n−|v| > n/2) is wider than any packing.
func (pk *PublicKey) Slots() int { return (pk.Bits() - 2) / SlotBits }

// Pack lays lo in the low slot and the signed hi in the slot above it:
// hi·2^W + lo. Packed plaintexts add slot-wise — homomorphically too — as
// long as the low sums stay below 2^W; Unpack inverts it on the sum.
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
	hi = new(big.Int).Rsh(m, SlotBits) // floors, so lo lands in [0, 2^W)
	lo = new(big.Int).Lsh(hi, SlotBits)
	return lo.Sub(m, lo), hi
}

// DecryptSlots decrypts up to Slots() ciphertexts, each carrying a
// non-negative plaintext < 2^SlotBits, for the price of one decryption plus
// a W-bit shift per extra ciphertext: the key holder packs them into one
// plaintext itself (see decrypt) and cuts the result apart. Plaintexts come
// back in input order. A sender whose value overflows its slot corrupts the
// slots above it — undetectable unless the top slot overflows too, which,
// like a negative plaintext, fails with ErrSlotOverflow.
func (sk *PrivateKey) DecryptSlots(cts []*Ciphertext) ([]*big.Int, error) {
	k := len(cts)
	if k == 0 || k > sk.Slots() {
		return nil, fmt.Errorf("paillier: %d ciphertexts for a %d-slot key", k, sk.Slots())
	}
	s := GetScratch()
	defer s.Put()
	m, err := sk.decrypt(s, cts...)
	if err != nil {
		return nil, err
	}
	if m.BitLen() > k*SlotBits { // too wide, or negative (see Slots)
		return nil, ErrSlotOverflow
	}
	out := make([]*big.Int, k)
	for j := k - 1; j >= 0; j-- {
		out[j] = new(big.Int).And(m, slotMask)
		m.Rsh(m, SlotBits)
	}
	return out, nil
}
