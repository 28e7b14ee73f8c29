package paillier

import (
	"bytes"
	"math/big"
	"testing"
)

// Allocation-budget tests: the pooled-arena work is only real if the hot
// paths stay allocation-free (or within a pinned constant) release after
// release. testing.AllocsPerRun includes a warm-up call, so one-time buffer
// growth (a reused big.Int reaching ciphertext width, a frame pool priming
// itself) is excluded and the budgets below are steady-state figures.

// TestScalarMulFastPathAllocBudget pins the k ∈ {0, ±1} fast paths that
// skip the exponentiation entirely. They still return a fresh Ciphertext —
// the protocol contract — so the budget is the constant cost of that
// result, never a function of the key size.
func TestScalarMulFastPathAllocBudget(t *testing.T) {
	key := testKey(t)
	pk := &key.PublicKey
	ct, err := pk.EncryptInt64(testRand(31), 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		k      *big.Int
		budget float64
	}{
		{"zero", big.NewInt(0), 4},
		{"one", big.NewInt(1), 4},
		{"minus-one", big.NewInt(-1), 24}, // ModInverse works in fresh storage
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(100, func() {
				if _, err := pk.ScalarMul(ct, tc.k); err != nil {
					t.Fatal(err)
				}
			})
			if avg > tc.budget {
				t.Errorf("ScalarMul(k=%v): %.1f allocs/op, budget %.0f", tc.k, avg, tc.budget)
			}
		})
	}
}

// TestScalarMulWordAllocBudget pins the ladder at the word-size scalars
// Protocol 4's reciprocals are: the result (ciphertext, integer, words) and nothing per
// bit — every product and reduction works in arena storage.
func TestScalarMulWordAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops arenas at random under the race detector")
	}
	key := testKey(t)
	ct, err := key.EncryptInt64(testRand(37), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*big.Int{big.NewInt(976562500), new(big.Int).SetUint64(1<<64 - 1)} {
		avg := testing.AllocsPerRun(100, func() {
			if _, err := key.ScalarMul(ct, k); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 3 {
			t.Errorf("ScalarMul(k=%v): %.1f allocs/op, budget 3", k, avg)
		}
	}
}

// TestBlindingFactorAllocBudget pins the refill path: a factor costs its
// result (the integer and its words) and the exponent buffer, whatever the
// key size — every temporary of the table walk is arena storage.
func TestBlindingFactorAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops arenas at random under the race detector")
	}
	key := testKey(t)
	rng := testRand(34)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := key.BlindingFactor(rng); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 3 {
		t.Errorf("BlindingFactor: %.1f allocs/op, budget 3", avg)
	}
}

// TestDecryptSlotsAllocBudget pins the packed decryption: what it allocates
// is math/big's own working storage inside Exp (≈ 20 objects a call, two
// calls per ciphertext: the shift or the final exponentiation, per prime)
// plus the k results — every temporary of the routine itself is arena
// storage, so the count per ciphertext does not grow with the batch.
func TestDecryptSlotsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops arenas at random under the race detector")
	}
	key, err := GenerateKey(testRand(35), 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRand(36)
	cts := make([]*Ciphertext, key.Slots())
	for i := range cts {
		if cts[i], err = key.EncryptInt64(rng, int64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{1, len(cts)} {
		avg := testing.AllocsPerRun(50, func() {
			if _, err := key.DecryptSlots(cts[:k]); err != nil {
				t.Fatal(err)
			}
		})
		if budget := float64(48 * k); avg > budget {
			t.Errorf("DecryptSlots(k=%d): %.1f allocs/op, budget %.0f", k, avg, budget)
		}
	}
}

// TestAppendFixedAllocFree pins the zero-copy wire encoding: appending a
// fixed-width ciphertext into a caller-provided buffer of FixedLen capacity
// allocates nothing.
func TestAppendFixedAllocFree(t *testing.T) {
	key := testKey(t)
	pk := &key.PublicKey
	ct, err := pk.EncryptInt64(testRand(32), 1234)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, pk.FixedLen())
	avg := testing.AllocsPerRun(100, func() {
		if _, err := ct.AppendFixed(dst[:0], pk); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("AppendFixed into sized buffer: %.1f allocs/op, want 0", avg)
	}
}

// TestUnmarshalReuseAllocFree pins the decode half of the fold loops: once
// a reused Ciphertext's integer has grown to ciphertext width, decoding
// into it allocates nothing.
func TestUnmarshalReuseAllocFree(t *testing.T) {
	key := testKey(t)
	pk := &key.PublicKey
	ct, err := pk.EncryptInt64(testRand(33), 99)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ct.MarshalFixed(pk)
	if err != nil {
		t.Fatal(err)
	}
	var into Ciphertext
	avg := testing.AllocsPerRun(100, func() {
		if err := into.UnmarshalBinary(wire); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("UnmarshalBinary into reused ciphertext: %.1f allocs/op, want 0", avg)
	}
	if into.C.Cmp(ct.C) != 0 {
		t.Fatal("reused decode changed the value")
	}
}

// TestAppendFixedRoundTrip is the wire-encoder regression: AppendFixed
// appended mid-buffer is byte-identical to a standalone MarshalFixed, and
// both decode back to the original value.
func TestAppendFixedRoundTrip(t *testing.T) {
	key := testKey(t)
	pk := &key.PublicKey
	for i := int64(0); i < 8; i++ {
		ct, err := pk.EncryptInt64(testRand(40+i), i-4)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ct.MarshalFixed(pk)
		if err != nil {
			t.Fatal(err)
		}
		// Append after a 4-byte prefix.
		buf := make([]byte, 4, 4+2*pk.FixedLen())
		out, err := ct.AppendFixed(buf, pk)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[4:], ref) {
			t.Fatalf("AppendFixed mid-buffer differs from MarshalFixed")
		}
		var back Ciphertext
		if err := back.UnmarshalBinary(out[4:]); err != nil {
			t.Fatal(err)
		}
		if back.C.Cmp(ct.C) != 0 {
			t.Fatalf("round trip changed ciphertext: %v vs %v", back.C, ct.C)
		}
	}
}

// FuzzAppendFixedPooled drives the pooled marshal path against the
// allocating reference: for arbitrary plaintexts, AppendFixed into a reused
// buffer must produce bytes identical to a fresh MarshalFixed, and both
// must round-trip to the same ciphertext value.
func FuzzAppendFixedPooled(f *testing.F) {
	key, err := GenerateKey(testRand(16), 128)
	if err != nil {
		f.Fatal(err)
	}
	pk := &key.PublicKey
	reused := make([]byte, 0, pk.FixedLen())
	f.Add(int64(0))
	f.Add(int64(1))
	f.Add(int64(-1))
	f.Add(int64(1<<40 + 12345))
	f.Fuzz(func(t *testing.T, m int64) {
		ct, err := pk.EncryptInt64(testRand(m^0x5eed), m)
		if err != nil {
			// Out of the signed range for this key size — not this fuzz
			// target's concern.
			return
		}
		ref, err := ct.MarshalFixed(pk)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := ct.AppendFixed(reused[:0], pk)
		if err != nil {
			t.Fatal(err)
		}
		reused = pooled[:0]
		if !bytes.Equal(ref, pooled) {
			t.Fatalf("pooled encoding differs from reference for m=%d", m)
		}
		var a, b Ciphertext
		if err := a.UnmarshalBinary(ref); err != nil {
			t.Fatal(err)
		}
		if err := b.UnmarshalBinary(pooled); err != nil {
			t.Fatal(err)
		}
		if a.C.Cmp(b.C) != 0 || a.C.Cmp(ct.C) != 0 {
			t.Fatalf("round trip diverged for m=%d", m)
		}
	})
}
