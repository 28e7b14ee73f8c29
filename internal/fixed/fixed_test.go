package fixed

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []struct {
		in   float64
		want Value
	}{
		{0, 0},
		{1, Scale},
		{-1, -Scale},
		{0.5, Scale / 2},
		{123.456789, 123_456_789},
		{-0.000001, -1},
		{0.0000004, 0},   // rounds down
		{0.0000006, 1},   // rounds up
		{-0.0000006, -1}, // rounds away from zero
	}
	for _, c := range cases {
		got, err := FromFloat(c.in)
		if err != nil {
			t.Fatalf("FromFloat(%v): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("FromFloat(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFromFloatErrors(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FromFloat(f); err == nil {
			t.Errorf("FromFloat(%v): want error", f)
		}
	}
	if _, err := FromFloat(1e19); err == nil {
		t.Error("FromFloat(1e19): want overflow error")
	}
}

func TestFloatInverse(t *testing.T) {
	if err := quick.Check(func(raw int64) bool {
		v := Value(raw % (1 << 50))
		back, err := FromFloat(v.Float())
		return err == nil && back == v
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBigRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw int64) bool {
		v := Value(raw)
		back, err := FromBig(big.NewInt(int64(v)))
		return err == nil && back == v
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFromBigOverflow(t *testing.T) {
	huge := new(big.Int).Lsh(big.NewInt(1), 80)
	if _, err := FromBig(huge); err == nil {
		t.Error("FromBig(2^80): want overflow error")
	}
}

func TestReciprocalExponent(t *testing.T) {
	exp, err := ReciprocalExponent(Value(2 * Scale)) // 1/2
	if err != nil {
		t.Fatal(err)
	}
	want := big.NewInt(RecipScale / (2 * Scale))
	if exp.Cmp(want) != 0 {
		t.Errorf("ReciprocalExponent(2) = %s, want %s", exp, want)
	}
	if _, err := ReciprocalExponent(0); err == nil {
		t.Error("ReciprocalExponent(0): want error")
	}
	if _, err := ReciprocalExponent(-1); err == nil {
		t.Error("ReciprocalExponent(-1): want error")
	}
}

func TestRecipRoundTripProperty(t *testing.T) {
	// For positive sn and E_b, the Protocol 4 pipeline
	//   exp = round(S/sn); masked = E_b * exp; ratio = S/masked
	// must recover sn/E_b with small relative error.
	if err := quick.Check(func(snRaw, ebRaw uint32) bool {
		sn := Value(int64(snRaw%100_000_000) + 100) // 100 micro .. 100 units
		eb := Value(int64(ebRaw%1_000_000_000) + int64(sn))
		exp, err := ReciprocalExponent(sn)
		if err != nil {
			return false
		}
		masked := new(big.Int).Mul(big.NewInt(int64(eb)), exp)
		ratio, err := RatioFromMasked(masked)
		if err != nil {
			return false
		}
		want := float64(sn) / float64(eb)
		relErr := math.Abs(ratio-want) / want
		return relErr < 1e-3
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestMaskedProductsRevealTotalByGCD documents a leak beyond Lemma 4
// (DESIGN.md §8): Hs decrypts the exact integers y_j = E_b·k_j, k_j =
// round(RecipScale/|sn_j|), so gcd(y_1, …, y_d) = E_b·gcd(k_1, …, k_d) — E_b
// itself whenever the k_j are coprime, which d random integers are with
// probability 1/ζ(d): ≈ 61 % at d = 2, ≈ 99.6 % at d = 8. E_b then gives
// every k_j = y_j/E_b and with it |sn_j| to within |sn_j|²/RecipScale
// micro-units — the micro-kWh itself for shares up to 1 kWh — where the
// lemma grants Hs only the ratios |sn_j|/E_b. Both backends decrypt the same
// y_j, so both leak; this test pins the arithmetic, not a protocol run.
func TestMaskedProductsRevealTotalByGCD(t *testing.T) {
	rng := rand.New(rand.NewPCG(2020, 425))
	for _, tc := range []struct {
		d    int
		want float64 // least share of coalitions whose total the gcd gives away
	}{{2, 0.55}, {8, 0.98}} {
		const trials = 1000
		exposed := 0
		for trial := 0; trial < trials; trial++ {
			sn := make([]Value, tc.d)
			eb := new(big.Int)
			for j := range sn {
				sn[j] = Value(50_000 + rng.Int64N(5_000_000)) // 0.05–5 kWh
				eb.Add(eb, big.NewInt(int64(sn[j])))
			}
			ys := make([]*big.Int, tc.d)
			g := new(big.Int)
			for j := range sn {
				k, err := ReciprocalExponent(sn[j])
				if err != nil {
					t.Fatal(err)
				}
				ys[j] = new(big.Int).Mul(eb, k)
				g.GCD(nil, nil, g, ys[j])
			}
			if new(big.Int).Mod(g, eb).Sign() != 0 {
				t.Fatalf("gcd %v of the masked products is not a multiple of E_b = %v", g, eb)
			}
			if g.Cmp(eb) != 0 {
				continue
			}
			exposed++
			for j, y := range ys {
				k := new(big.Int).Quo(y, g).Int64()
				guess := Value(RecipScale / k)
				if tol := sn[j]*sn[j]/RecipScale + 1; (guess - sn[j]).Abs() > tol {
					t.Fatalf("d=%d: recovered |sn_j| = %d from k_j = %d, share is %d (tolerance %d)", tc.d, guess, k, sn[j], tol)
				}
			}
		}
		t.Logf("d=%d: the gcd is E_b in %d of %d coalitions", tc.d, exposed, trials)
		if rate := float64(exposed) / trials; rate < tc.want {
			t.Errorf("d=%d: gcd gave away E_b in %.1f %% of coalitions, want ≥ %.0f %%", tc.d, 100*rate, 100*tc.want)
		}
	}
}

func TestRatioFromMaskedErrors(t *testing.T) {
	if _, err := RatioFromMasked(big.NewInt(0)); err == nil {
		t.Error("RatioFromMasked(0): want error")
	}
	if _, err := RatioFromMasked(big.NewInt(-5)); err == nil {
		t.Error("RatioFromMasked(-5): want error")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{0, "0.000000"},
		{Scale, "1.000000"},
		{-Scale, "-1.000000"},
		{1_500_000, "1.500000"},
		{-1, "-0.000001"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestAbs(t *testing.T) {
	if Value(-5).Abs() != 5 || Value(5).Abs() != 5 || Value(0).Abs() != 0 {
		t.Error("Abs is wrong")
	}
}

// TestMaskedProductBits: the widest masked product a demand side of d
// members can send — every member at MaxShare, the largest exponent
// RecipScale (a 1 µ-unit member) — fits MaskedProductBits(d) from d = 1 to
// 2^21, and needs all of it where d is a power of two.
func TestMaskedProductBits(t *testing.T) {
	for k := 0; k <= 21; k++ {
		for _, d := range []int{1 << k, 1<<k + 1} {
			widest := new(big.Int).Mul(big.NewInt(int64(d)*int64(MaxShare)), big.NewInt(RecipScale))
			w := MaskedProductBits(d)
			if widest.BitLen() > w || d == 1<<k && widest.BitLen() != w {
				t.Errorf("d=%d: widest product has %d bits, width %d", d, widest.BitLen(), w)
			}
		}
	}
	for d, want := range map[int]int{1: 64, 2: 65, 32: 69, 33: 70, 1 << 21: 85} {
		if got := MaskedProductBits(d); got != want {
			t.Errorf("MaskedProductBits(%d) = %d, want %d", d, got, want)
		}
	}
}

// TestComparatorBits: the widest difference of two totals over a larger
// side of m members, m·MaxShare, stays below 2^(w−1) from m = 1 to 2^21,
// and a width one less would not hold it. The benchmark's 32-home day has
// m in [16, 31], so 30 bits.
func TestComparatorBits(t *testing.T) {
	for m, want := range map[int]int{1: 26, 2: 27, 15: 29, 16: 30, 31: 30, 32: 31, 1 << 21: 47} {
		w := ComparatorBits(m)
		if w != want {
			t.Errorf("ComparatorBits(%d) = %d, want %d", m, w, want)
		}
		widest := uint64(m) * uint64(MaxShare)
		if widest >= 1<<(w-1) || widest < 1<<(w-2) {
			t.Errorf("m=%d: widest difference %d outside [2^%d, 2^%d)", m, widest, w-2, w-1)
		}
	}
}
