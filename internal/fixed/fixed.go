// Package fixed provides fixed-point arithmetic for energy quantities and
// prices exchanged in the PEM protocols.
//
// All protocol-visible quantities (net energy, generation, load, battery
// schedules, utility parameters) are represented as integers in micro-units
// (1e-6 of the base unit, e.g. micro-kWh or micro-cents) so that they can be
// encrypted under Paillier, which operates on integers. The package also
// implements the reciprocal scaling used by Private Distribution
// (Protocol 4), where a buyer homomorphically multiplies Enc(E_b) by an
// integer approximation of 1/|sn_j|.
package fixed

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

const (
	// Scale is the number of micro-units per base unit.
	Scale = 1_000_000

	// RecipScale is the scaling constant S used to turn the reciprocal
	// 1/|sn_j| into the integer exponent round(S/|sn_j|) in Protocol 4.
	RecipScale = 1_000_000_000_000 // 1e12

	// MaxShare is the public bound on a window's share |sn_i^t|: 2^24 µkWh
	// (≈ 16.8 kWh), 83× the largest share a dataset preset draws (0.202
	// kWh, sunny, 300 homes × 720 windows). Parties and market.Clear refuse
	// a larger one. It keeps Protocol 4's exponent round(RecipScale/|sn|) ≥
	// 59 605, so a ratio is within ≈ 8.4·10⁻⁶ relative of |sn_j|/E_b, and
	// it sizes Hs's packed decryption (MaskedProductBits) and Protocol 2's
	// comparator (ComparatorBits).
	MaxShare Value = 1 << 24
)

// MaskedProductBits is the width of Protocol 4's masked product
// E_b·round(RecipScale/|sn_j|) over a demand side of d ≥ 1 members: the
// exponent is at most RecipScale < 2^40 and E_b ≤ d·MaxShare ≤
// 2^(24+⌈log₂ d⌉), so the product is below 2^(64+⌈log₂ d⌉).
func MaskedProductBits(d int) int {
	return 40 + 24 + bits.Len(uint(d-1))
}

// ComparatorBits is the width of Protocol 2's garbled comparator when the
// larger side of the window has m members: E_b and E_s are each at most
// m·MaxShare, so |E_b − E_s| < 2^(w−1), which is what the sign of the
// difference of the low w bits needs (gc.BuildDifferenceSign).
func ComparatorBits(m int) int {
	return 1 + bits.Len64(uint64(m)*uint64(MaxShare))
}

// Value is a fixed-point quantity in micro-units.
type Value int64

// Errors returned by conversions.
var (
	ErrOverflow  = errors.New("fixed: value overflows int64 micro-units")
	ErrNotFinite = errors.New("fixed: value is NaN or infinite")
)

// FromFloat converts a float64 base-unit quantity to a Value, rounding to
// the nearest micro-unit.
func FromFloat(f float64) (Value, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, ErrNotFinite
	}
	scaled := f * Scale
	if scaled >= math.MaxInt64 || scaled <= math.MinInt64 {
		return 0, ErrOverflow
	}
	return Value(math.Round(scaled)), nil
}

// Float converts v back to a float64 base-unit quantity.
func (v Value) Float() float64 {
	return float64(v) / Scale
}

// FromBig converts a micro-unit big.Int back to a Value.
func FromBig(b *big.Int) (Value, error) {
	if !b.IsInt64() {
		return 0, ErrOverflow
	}
	return Value(b.Int64()), nil
}

// Abs returns the absolute value of v.
func (v Value) Abs() Value {
	if v < 0 {
		return -v
	}
	return v
}

// String renders v with six decimal places.
func (v Value) String() string {
	neg := v < 0
	a := v.Abs()
	whole := int64(a) / Scale
	frac := int64(a) % Scale
	sign := ""
	if neg {
		sign = "-"
	}
	return fmt.Sprintf("%s%d.%06d", sign, whole, frac)
}

// ReciprocalExponent returns the integer exponent k = round(RecipScale/v)
// used in Protocol 4 to homomorphically compute Enc(E_b * RecipScale / v).
// v must be strictly positive.
func ReciprocalExponent(v Value) (*big.Int, error) {
	if v <= 0 {
		return nil, fmt.Errorf("fixed: reciprocal of non-positive value %d", v)
	}
	num := big.NewInt(RecipScale)
	den := big.NewInt(int64(v))
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	// Round to nearest.
	r.Lsh(r, 1)
	if r.Cmp(den) >= 0 {
		q.Add(q, big.NewInt(1))
	}
	return q, nil
}

// RatioFromMasked recovers the demand ratio |sn_j| / E_b from the decrypted
// masked product m = E_b * round(RecipScale/|sn_j|). The chosen seller in
// Protocol 4 calls this to derive the allocation ratios it broadcasts.
func RatioFromMasked(masked *big.Int) (float64, error) {
	if masked.Sign() <= 0 {
		return 0, fmt.Errorf("fixed: masked ratio must be positive, got %s", masked)
	}
	f := new(big.Float).SetInt(masked)
	s := new(big.Float).SetInt64(RecipScale)
	ratio, _ := new(big.Float).Quo(s, f).Float64()
	return ratio, nil
}
