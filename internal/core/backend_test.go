package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"strings"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/fixed"
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

// FuzzWindow's header bits: the tree topology, and the wide magnitude.
const (
	windowTree = 8
	windowWide = 16
)

// decodeWindow turns fuzz bytes into one window: a header byte (2–8 agents
// in its low three bits mod 7, the tree topology under windowTree, the wide
// magnitude under windowWide), a two-byte engine seed, then per agent five
// bytes — k and ε anywhere inside Agent.Validate's limits, generation and
// load in steps of 1/32 kWh up to 15/32, battery in steps of 1/64 kWh
// within ±1/32. The wide magnitude scales every step by 34, to 17/16 kWh,
// so shares reach 15.5 steps ≈ 16.47 kWh, 98 % of fixed.MaxShare, and a
// share of 16 steps, 17 kWh, crosses it. Missing bytes read 0. The grid is
// dyadic, so sums are exact in float64 and in µ-units alike: E_b = E_s
// ties, a single buyer, all sellers and zero net are all on it.
func decodeWindow(data []byte) (agents []market.Agent, inputs []market.WindowInput, seed int64, topo string, wide bool) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 2 + int(at(0)&7)%7
	topo = AggregationRing
	if at(0)&windowTree != 0 {
		topo = AggregationTree
	}
	step := 1.0 / 32 // kWh
	if wide = at(0)&windowWide != 0; wide {
		step = 17.0 / 16
	}
	seed = int64(at(1))<<8 | int64(at(2))
	agents, inputs = testAgents(n), make([]market.WindowInput, n)
	for i := range agents {
		b := 3 + 5*i
		agents[i].K = float64(at(b)) + 1
		agents[i].Epsilon = (float64(at(b+1)%255) + 1) / 256
		inputs[i] = market.WindowInput{
			Generation: float64(at(b+2)%16) * step,
			Load:       float64(at(b+3)%16) * step,
			Battery:    (float64(at(b+4)%5) - 2) * step / 2,
		}
	}
	return agents, inputs, seed, topo, wide
}

// assertProRata is the wide magnitude's oracle: market.Clear pair by pair,
// within Protocol 4's derived error. round(10^12/|sn_j|) is within
// |sn_j|/(2·10^12) ≤ fixed.MaxShare/(2·10^12) relative of 10^12/|sn_j|, so a
// trade e_ij, at most its supply-side member's share, is within
// share·MaxShare/(2·10^12) of pro rata, plus a µkWh of wire rounding; its
// payment within the price times that, plus a µ-unit and the price's own
// rounding on e_ij.
func assertProRata(t *testing.T, res *WindowResult, agents []market.Agent, inputs []market.WindowInput) {
	t.Helper()
	ref, err := market.Clear(agents, inputs, market.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ref.Kind || math.Abs(res.Price-ref.Price) > 1e-4 || res.SellerCount != len(ref.SellerIDs) || res.BuyerCount != len(ref.BuyerIDs) {
		t.Fatalf("private %v at %v, %d/%d; plaintext %v at %v, %d/%d", res.Kind, res.Price, res.SellerCount, res.BuyerCount,
			ref.Kind, ref.Price, len(ref.SellerIDs), len(ref.BuyerIDs))
	}
	if len(res.Trades) != len(ref.Trades) {
		t.Fatalf("%d trades, plaintext %d", len(res.Trades), len(ref.Trades))
	}
	share := make(map[string]float64, len(agents))
	for i, a := range agents {
		share[a.ID] = math.Abs(inputs[i].NetEnergy())
	}
	for i, tr := range res.Trades {
		want := ref.Trades[i]
		supplier := tr.Seller
		if res.Kind == market.ExtremeMarket {
			supplier = tr.Buyer
		}
		tol := share[supplier]*float64(fixed.MaxShare)/(2*fixed.RecipScale) + 1e-6
		payTol := res.Price*tol + want.Energy*math.Abs(res.Price-ref.Price) + 1e-6
		if tr.Seller != want.Seller || tr.Buyer != want.Buyer || math.Abs(tr.Energy-want.Energy) > tol || math.Abs(tr.Payment-want.Payment) > payTol {
			t.Fatalf("trade %+v, plaintext %+v: off by more than %g kWh or %g", tr, want, tol, payTol)
		}
	}
}

// FuzzWindow is the differential check of a whole window: the decoded
// window runs once under paillier and once under hybrid at 256-bit keys.
// Either both outcomes agree bit for bit and match market.Clear (pair by
// pair, on the wide magnitude within assertProRata's derived error) and,
// when anything trades, the integer oracle exactly; or both refuse before
// any frame is sent, with the same *WindowError, for a share above
// fixed.MaxShare that market.Clear refuses too. Within the bound no honest
// window is refused after frames. Every execution borrows one KeyRing, so
// it pays for windows, not for key generation.
//
// Its seeds are the ten trials of TestRandomizedWindowsMatchPlaintext and
// TestHybridRandomizedMatchesPaillier — the same math/rand draws, put on the
// decoder's grid — and one window for each case the grid exists to reach.
func FuzzWindow(f *testing.F) {
	for _, s := range []struct {
		src, seed int64
		tree      bool // on odd trials
	}{{4242, 5000, false}, {777, 7000, true}} {
		rng := mrand.New(mrand.NewSource(s.src))
		for trial := range 5 {
			n := 3 + rng.Intn(5)
			head := byte(n - 2)
			if s.tree && trial%2 == 1 {
				head |= windowTree
			}
			entry := binary.BigEndian.AppendUint16([]byte{head}, uint16(s.seed)+uint16(trial))
			for range n {
				k, eps := 60+rng.Float64()*60, 0.6+rng.Float64()*0.3
				g, l, b := rng.Float64()*0.4, rng.Float64()*0.4, (rng.Float64()-0.5)*0.05
				entry = append(entry, byte(math.Round(k))-1, byte(math.Round(eps*256))-1,
					byte(math.Round(g*32)), byte(math.Round(l*32)), byte(math.Round(b*64)+2))
			}
			f.Add(entry)
		}
	}
	// Agent bytes: k, ε, generation, load, battery (2 is none).
	f.Add([]byte{0, 0, 1, 70, 200, 6, 0, 2, 90, 180, 0, 6, 2})                                                    // E_b = E_s
	f.Add([]byte{2 | windowTree, 0, 2, 70, 200, 5, 1, 2, 80, 190, 4, 0, 2, 90, 180, 0, 3, 2, 99, 170, 2, 0, 2})   // a single buyer
	f.Add([]byte{1, 0, 3, 70, 200, 5, 1, 2, 80, 190, 4, 0, 2, 90, 180, 3, 2, 2})                                  // all sellers
	f.Add([]byte{1, 0, 4, 70, 200, 6, 0, 2, 80, 190, 3, 3, 2, 90, 180, 0, 4, 2})                                  // a zero net
	f.Add([]byte{0, 0, 5, 70, 200, 3, 3, 2, 80, 190, 0, 0, 2})                                                    // no coalition
	f.Add([]byte{1 | windowWide, 0, 6, 70, 200, 15, 0, 2, 80, 190, 0, 15, 2, 90, 180, 0, 14, 2})                  // shares of 15–15 steps
	f.Add([]byte{2 | windowWide, 0, 8, 70, 200, 15, 0, 1, 80, 190, 0, 15, 3, 90, 180, 0, 1, 2, 99, 170, 0, 0, 2}) // 15.5 steps, ≈ 98 % of the bound
	f.Add([]byte{5 | windowWide, 0, 7, 70, 200, 15, 0, 2, 80, 200, 0, 2, 1, 81, 200, 0, 3, 2, 82, 200, 0, 3, 2,
		83, 200, 0, 7, 1, 84, 200, 0, 7, 2, 85, 200, 0, 9, 1}) // one seller of 15 steps, six buyers
	f.Add([]byte{2 | windowWide, 0, 9, 70, 200, 15, 0, 0, 80, 190, 0, 6, 2, 90, 180, 0, 5, 2, 99, 170, 3, 0, 2}) // 16 steps, 17 kWh: over the bound
	// |E_b − E_s| as near m·MaxShare as the grid reaches, for m = 2^j − 1
	// (Protocol 2's comparator width is tight there): m members of 15.5
	// steps against one of half a step, and the mirror.
	edge := func(m int, heavy, light []byte) []byte {
		entry := []byte{byte(m-1) | windowWide, 0, byte(10 + m)}
		for i := range m {
			entry = append(append(entry, byte(70+i), 200), heavy...)
		}
		return append(append(entry, 99, 170), light...)
	}
	heavySeller, heavyBuyer, halfSeller, halfBuyer := []byte{15, 0, 1}, []byte{0, 15, 3}, []byte{0, 0, 1}, []byte{0, 0, 3}
	for _, m := range []int{1, 3, 7} {
		f.Add(edge(m, heavySeller, halfBuyer))
	}
	f.Add(edge(7, heavyBuyer, halfSeller))

	ring := NewKeyRing(testConfig(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		agents, inputs, seed, topo, wide := decodeWindow(data)
		run := func(backend string) (*WindowResult, int64, error) {
			cfg := testConfig(seed)
			cfg.CryptoBackend, cfg.Aggregation = backend, topo
			eng, err := NewEngineWith(cfg, agents, Resources{Keys: ring})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
			defer cancel()
			res, err := eng.RunWindow(ctx, 0, inputs)
			return res, eng.Metrics().TotalBytes(), err
		}
		pai, paiBytes, paiErr := run(BackendPaillier)
		hyb, hybBytes, hybErr := run(BackendHybrid)
		if paiErr != nil || hybErr != nil {
			var we *WindowError
			_, clrErr := market.Clear(agents, inputs, market.DefaultParams())
			if paiBytes+hybBytes == 0 && errors.As(paiErr, &we) && hybErr != nil && paiErr.Error() == hybErr.Error() &&
				errors.Is(paiErr, market.ErrShareBound) && errors.Is(clrErr, market.ErrShareBound) {
				return
			}
			t.Fatalf("paillier: %v (%d bytes sent); hybrid: %v (%d bytes sent); market.Clear: %v", paiErr, paiBytes, hybErr, hybBytes, clrErr)
		}
		assertSameOutcome(t, "paillier vs hybrid", pai, hyb)
		if wide {
			assertProRata(t, hyb, agents, inputs)
		} else {
			assertMatchesPlaintext(t, hyb, agents, inputs)
		}
		if !hyb.Degenerate {
			assertTradesExactly(t, "integer oracle", hyb.Trades, integerOracle(t, hyb, agents, inputs))
		}
	})
}
