package core

import (
	"math"
	"strings"
	"testing"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
)

// windowInputsMixed is a fleet input with populated coalitions on both
// sides, exercising the full Protocol 2–4 stack.
func windowInputsMixed(n int) []market.WindowInput {
	inputs := make([]market.WindowInput, n)
	for i := range inputs {
		switch i % 3 {
		case 0:
			inputs[i] = market.WindowInput{Generation: 0.30 + 0.01*float64(i), Load: 0.10}
		case 1:
			inputs[i] = market.WindowInput{Generation: 0.00, Load: 0.25 + 0.01*float64(i)}
		default:
			inputs[i] = market.WindowInput{Generation: 0.05, Load: 0.20}
		}
	}
	return inputs
}

// TestTreeAggregationMatchesPlaintext validates the log-depth topology
// against the plaintext oracle for both market regimes and for coalition
// sizes around the tree's structural edge cases (1, 2, power of two,
// power of two ± 1 members).
func TestTreeAggregationMatchesPlaintext(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 7, 8, 9} {
		agents := testAgents(n)
		inputs := windowInputsMixed(n)
		cfg := testConfig(700 + int64(n))
		cfg.Aggregation = AggregationTree
		res := runOneWindow(t, cfg, agents, inputs)
		assertMatchesPlaintext(t, res, agents, inputs)
	}
}

func TestTreeAggregationExtremeMarket(t *testing.T) {
	agents := testAgents(5)
	inputs := []market.WindowInput{
		{Generation: 0.50, Load: 0.10}, // seller
		{Generation: 0.40, Load: 0.10}, // seller
		{Generation: 0.45, Load: 0.05}, // seller
		{Generation: 0.00, Load: 0.15}, // buyer
		{Generation: 0.00, Load: 0.10}, // buyer
	}
	cfg := testConfig(711)
	cfg.Aggregation = AggregationTree
	res := runOneWindow(t, cfg, agents, inputs)
	if res.Kind != market.ExtremeMarket {
		t.Fatalf("kind = %v", res.Kind)
	}
	assertMatchesPlaintext(t, res, agents, inputs)
}

// TestWorkerCountBitIdentical is the determinism acceptance check for the
// intra-window parallel engine: a seeded ring-topology run must produce
// bit-identical public outcomes at every crypto worker count.
func TestWorkerCountBitIdentical(t *testing.T) {
	agents := testAgents(7)
	inputs := windowInputsMixed(7)

	run := func(workers int) *WindowResult {
		pool := paillier.NewWorkers(workers)
		return runOneWindowWith(t, testConfig(720), Resources{Workers: pool}, agents, inputs)
	}
	base := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.Kind != base.Kind || got.Price != base.Price || got.PHat != base.PHat {
			t.Fatalf("workers=%d: outcome differs: %+v vs %+v", workers, got, base)
		}
		if len(got.Trades) != len(base.Trades) {
			t.Fatalf("workers=%d: trade counts differ", workers)
		}
		for i := range base.Trades {
			if got.Trades[i] != base.Trades[i] {
				t.Fatalf("workers=%d trade %d: %+v vs %+v", workers, i, got.Trades[i], base.Trades[i])
			}
		}
	}
}

func TestConfigValidatesParallelKnobs(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxInflightWindows = -1
	if _, err := NewEngine(cfg, testAgents(2)); err == nil {
		t.Error("negative MaxInflightWindows accepted")
	}
	cfg = testConfig(1)
	cfg.Aggregation = "star"
	if _, err := NewEngine(cfg, testAgents(2)); err == nil {
		t.Error("unknown aggregation accepted")
	}
}

func TestDecodeRatiosHardening(t *testing.T) {
	valid, err := encodeRatios(map[string]float64{"a": 0.25, "b": 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRatios(valid); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}

	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"count-bomb", []byte{0xff, 0xff, 0xff, 0xff}, "exceeds payload"},
		{"count-exceeds-payload", append([]byte{0, 0, 0, 9}, valid[4:]...), "exceeds payload"},
		{"truncated", valid[:len(valid)-1], "truncated"},
		{"trailing", append(append([]byte(nil), valid...), 0), "trailing"},
	}
	for _, tc := range cases {
		if _, err := decodeRatios(tc.raw); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	for name, v := range map[string]float64{
		"nan":      math.NaN(),
		"inf":      math.Inf(1),
		"neg-inf":  math.Inf(-1),
		"negative": -0.25,
		"above-1":  1.5,
	} {
		raw, err := encodeRatios(map[string]float64{"a": v})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeRatios(raw); err == nil {
			t.Errorf("%s ratio accepted", name)
		}
	}

	// Within rounding slack of 1 is legal.
	raw, err := encodeRatios(map[string]float64{"a": 1 + ratioSlack/2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRatios(raw); err != nil {
		t.Errorf("ratio within slack rejected: %v", err)
	}
}

// FuzzDecodeRatios checks the wire decoder never panics, never accepts a
// non-finite or out-of-range ratio, and that accepted vectors survive an
// encode/decode round trip.
func FuzzDecodeRatios(f *testing.F) {
	seed, _ := encodeRatios(map[string]float64{"alice": 0.25, "bob": 0.75})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ratios, err := decodeRatios(raw)
		if err != nil {
			return
		}
		for id, v := range ratios {
			if err := checkRatio(v); err != nil {
				t.Fatalf("decoder accepted bad ratio %g for %q", v, id)
			}
		}
		re, err := encodeRatios(ratios)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := decodeRatios(re)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if len(back) != len(ratios) {
			t.Fatalf("round trip lost entries: %d vs %d", len(back), len(ratios))
		}
	})
}
