package core

import (
	"fmt"
	mrand "math/rand"
	"strings"
	"testing"

	"github.com/pem-go/pem/internal/market"
)

// assertSameOutcome checks that two backends produced bit-identical public
// outcomes: kind, price (exact — both quantize through the same fixed-point
// wire format) and the full trade list.
func assertSameOutcome(t *testing.T, label string, a, b *WindowResult) {
	t.Helper()
	if a.Kind != b.Kind {
		t.Fatalf("%s: kind %v vs %v", label, a.Kind, b.Kind)
	}
	if a.Price != b.Price {
		t.Fatalf("%s: price %v vs %v", label, a.Price, b.Price)
	}
	if a.Degenerate != b.Degenerate {
		t.Fatalf("%s: degenerate %v vs %v", label, a.Degenerate, b.Degenerate)
	}
	if len(a.Trades) != len(b.Trades) {
		t.Fatalf("%s: %d vs %d trades", label, len(a.Trades), len(b.Trades))
	}
	for i := range a.Trades {
		if a.Trades[i] != b.Trades[i] {
			t.Fatalf("%s: trade %d: %+v vs %+v", label, i, a.Trades[i], b.Trades[i])
		}
	}
}

// TestHybridMatchesPaillierAndPlaintext is the core-level backend
// equivalence check: for both aggregation topologies and both market
// regimes, the hybrid backend's outcome must be bit-identical to the
// paillier backend's and match the plaintext oracle.
func TestHybridMatchesPaillierAndPlaintext(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		inputs func(n int) []market.WindowInput
	}{
		{"general", 6, windowInputsMixed},
		{"extreme", 5, func(n int) []market.WindowInput {
			inputs := make([]market.WindowInput, n)
			for i := range inputs {
				if i < n-1 {
					inputs[i] = market.WindowInput{Generation: 0.40, Load: 0.05}
				} else {
					inputs[i] = market.WindowInput{Generation: 0.00, Load: 0.15}
				}
			}
			return inputs
		}},
	}
	for _, agg := range []string{AggregationRing, AggregationTree} {
		for _, tc := range cases {
			t.Run(agg+"/"+tc.name, func(t *testing.T) {
				agents := testAgents(tc.n)
				inputs := tc.inputs(tc.n)
				cfg := testConfig(900)
				cfg.Aggregation = agg
				pai := runOneWindow(t, cfg, agents, inputs)

				cfg.CryptoBackend = BackendHybrid
				hyb := runOneWindow(t, cfg, agents, inputs)

				assertSameOutcome(t, agg+"/"+tc.name, pai, hyb)
				assertMatchesPlaintext(t, hyb, agents, inputs)
			})
		}
	}
}

// TestHybridRandomizedMatchesPaillier fuzzes fleets and inputs across both
// backends; outcomes must stay bit-identical in every regime the random
// draw lands in (general, extreme, degenerate).
func TestHybridRandomizedMatchesPaillier(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: many protocol rounds")
	}
	rng := mrand.New(mrand.NewSource(777))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(5)
		agents := make([]market.Agent, n)
		inputs := make([]market.WindowInput, n)
		for i := range agents {
			agents[i] = market.Agent{
				ID:      fmt.Sprintf("h%d-%d", trial, i),
				K:       60 + rng.Float64()*60,
				Epsilon: 0.6 + rng.Float64()*0.3,
			}
			inputs[i] = market.WindowInput{
				Generation: rng.Float64() * 0.4,
				Load:       rng.Float64() * 0.4,
				Battery:    (rng.Float64() - 0.5) * 0.05,
			}
		}
		cfg := testConfig(int64(7000 + trial))
		if trial%2 == 1 {
			cfg.Aggregation = AggregationTree
		}
		pai := runOneWindow(t, cfg, agents, inputs)
		cfg.CryptoBackend = BackendHybrid
		hyb := runOneWindow(t, cfg, agents, inputs)
		assertSameOutcome(t, fmt.Sprintf("trial %d", trial), pai, hyb)
		if !hyb.Degenerate {
			assertMatchesPlaintext(t, hyb, agents, inputs)
		}
	}
}

// TestHybridFixedWidthFrames asserts the hybrid wire discipline: every
// masked-fold frame has a width independent of the carried values, so two
// runs with different inputs generate identical byte accounting.
func TestHybridFixedWidthFrames(t *testing.T) {
	run := func(seed int64, inputs []market.WindowInput) int64 {
		agents := testAgents(len(inputs))
		cfg := testConfig(seed)
		cfg.CryptoBackend = BackendHybrid
		res := runOneWindow(t, cfg, agents, inputs)
		if res.Degenerate {
			t.Fatal("unexpected degenerate window")
		}
		return res.BytesOnWire
	}
	a := run(31, windowInputsMixed(6))
	// Same coalition structure, different magnitudes.
	inputs := windowInputsMixed(6)
	for i := range inputs {
		inputs[i].Generation *= 0.7
		inputs[i].Load *= 0.7
	}
	b := run(31, inputs)
	if a != b {
		t.Fatalf("byte accounting depends on values: %d vs %d", a, b)
	}
}

func TestConfigValidatesCryptoBackend(t *testing.T) {
	cfg := testConfig(1).withDefaults()
	if cfg.CryptoBackend != BackendPaillier {
		t.Fatalf("default backend = %q, want %q", cfg.CryptoBackend, BackendPaillier)
	}
	cfg.CryptoBackend = "rot13"
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "crypto backend") {
		t.Fatalf("want crypto-backend validation error, got %v", err)
	}
}
