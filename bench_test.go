// Benchmarks kept beside benchmark/, which measures throughput, latency
// and per-layer cost end to end with a stronger method: the backend
// comparison over one real window and the pre-encryption ablation that is
// PreEncrypt's measured reason (DESIGN.md §3). TestWindowAllocBudget is the
// allocation gate of a private window.
package pem_test

import (
	"context"
	"runtime/debug"
	"testing"

	"github.com/pem-go/pem"
)

// midday is a seeded eight-home day's market roster and its midday window,
// both coalitions populated.
func midday(tb testing.TB) ([]pem.Agent, []pem.WindowInput) {
	tb.Helper()
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 8, Windows: 720, Seed: 20200425})
	if err != nil {
		tb.Fatal(err)
	}
	inputs, err := tr.WindowInputs(tr.Windows / 2)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Agents(), inputs
}

// benchWindow measures one private window per iteration under cfg.
func benchWindow(b *testing.B, cfg pem.Config) {
	agents, inputs := midday(b)
	m, err := pem.NewMarket(cfg, agents)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunWindow(context.Background(), i, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCryptoBackends runs the midday window under the paillier backend
// (the paper's construction) and the hybrid masking backend; outcomes are
// bit-identical (TestHybridPublicBitIdentical).
func BenchmarkCryptoBackends(b *testing.B) {
	for _, backend := range []string{pem.BackendPaillier, pem.BackendHybrid} {
		b.Run("backend="+backend, func(b *testing.B) {
			seed := int64(21)
			benchWindow(b, pem.Config{KeyBits: 512, Seed: &seed, CryptoBackend: backend})
		})
	}
}

// BenchmarkAblationPreEncryption runs the midday window at 2048-bit keys with
// idle-time blinding factors on and off (DESIGN.md §3).
func BenchmarkAblationPreEncryption(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "pool=on"
		if !on {
			name = "pool=off"
		}
		b.Run(name, func(b *testing.B) {
			seed, pre := int64(11), on
			benchWindow(b, pem.Config{KeyBits: 2048, Seed: &seed, PreEncrypt: &pre})
		})
	}
}

// TestWindowAllocBudget pins the allocations of one seeded private window
// per backend — eight homes, 512-bit keys, after three warm-up windows. The
// count of a seeded window does not depend on machine speed, so a ceiling
// of the measured count ×1.1 + 16 catches a regression without flaking.
// The race detector's instrumentation allocates, so it skips there.
func TestWindowAllocBudget(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts differ under the race detector")
			}
		}
	}
	agents, inputs := midday(t)
	// measured is the count on the reference box. AllocsPerRun warms up with
	// a fourth window of its own, so the fifth is the one counted.
	for _, tc := range []struct {
		backend  string
		measured float64
	}{{pem.BackendPaillier, 2283}, {pem.BackendHybrid, 516}} {
		t.Run(tc.backend, func(t *testing.T) {
			seed := int64(21)
			m, err := pem.NewMarket(pem.Config{KeyBits: 512, Seed: &seed, CryptoBackend: tc.backend}, agents)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			window := 0
			runWindow := func() {
				if _, err := m.RunWindow(context.Background(), window, inputs); err != nil {
					t.Fatal(err)
				}
				window++
			}
			for window < 3 {
				runWindow()
			}
			avg, ceiling := testing.AllocsPerRun(1, runWindow), tc.measured*1.1+16
			if avg > ceiling {
				t.Errorf("%.0f allocations a window, ceiling %.0f (%.0f measured)", avg, ceiling, tc.measured)
			}
		})
	}
}
