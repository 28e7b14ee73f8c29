package core

import (
	"context"
	"fmt"
	"math"
	mrand "math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/transport"
)

// testConfig returns a fast deterministic config for unit tests.
func testConfig(seed int64) Config {
	return Config{
		KeyBits:    256,
		PreEncrypt: true,
		Seed:       &seed,
	}
}

// testAgents builds n agents with ids a00, a01, ...
func testAgents(n int) []market.Agent {
	agents := make([]market.Agent, n)
	for i := range agents {
		agents[i] = market.Agent{
			ID:      "a" + string(rune('0'+i/10)) + string(rune('0'+i%10)),
			K:       70 + float64(i*7%50),
			Epsilon: 0.8,
		}
	}
	return agents
}

func runOneWindow(t *testing.T, cfg Config, agents []market.Agent, inputs []market.WindowInput) *WindowResult {
	t.Helper()
	return runOneWindowWith(t, cfg, Resources{}, agents, inputs)
}

// runOneWindowWith is runOneWindow over borrowed resources.
func runOneWindowWith(t *testing.T, cfg Config, infra Resources, agents []market.Agent, inputs []market.WindowInput) *WindowResult {
	t.Helper()
	eng, err := NewEngineWith(cfg, agents, infra)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := eng.RunWindow(ctx, 0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertMatchesPlaintext checks the private outcome against market.Clear.
func assertMatchesPlaintext(t *testing.T, res *WindowResult, agents []market.Agent, inputs []market.WindowInput) {
	t.Helper()
	ref, err := market.Clear(agents, inputs, market.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ref.Kind {
		t.Fatalf("kind: private %v, plaintext %v", res.Kind, ref.Kind)
	}
	if math.Abs(res.Price-ref.Price) > 1e-4 {
		t.Fatalf("price: private %v, plaintext %v", res.Price, ref.Price)
	}
	if res.SellerCount != len(ref.SellerIDs) || res.BuyerCount != len(ref.BuyerIDs) {
		t.Fatalf("coalitions: private %d/%d, plaintext %d/%d",
			res.SellerCount, res.BuyerCount, len(ref.SellerIDs), len(ref.BuyerIDs))
	}
	// Compare trades pairwise (both sorted by seller, buyer).
	if len(res.Trades) != len(ref.Trades) {
		t.Fatalf("trade count: private %d, plaintext %d", len(res.Trades), len(ref.Trades))
	}
	type key struct{ s, b string }
	refTrades := make(map[key]market.Trade, len(ref.Trades))
	for _, tr := range ref.Trades {
		refTrades[key{tr.Seller, tr.Buyer}] = tr
	}
	for _, tr := range res.Trades {
		want, ok := refTrades[key{tr.Seller, tr.Buyer}]
		if !ok {
			t.Fatalf("unexpected trade %s->%s", tr.Seller, tr.Buyer)
		}
		if math.Abs(tr.Energy-want.Energy) > 1e-4 {
			t.Errorf("trade %s->%s energy %v, want %v", tr.Seller, tr.Buyer, tr.Energy, want.Energy)
		}
		if math.Abs(tr.Payment-want.Payment) > 1e-2 {
			t.Errorf("trade %s->%s payment %v, want %v", tr.Seller, tr.Buyer, tr.Payment, want.Payment)
		}
	}
}

func TestGeneralMarketMatchesPlaintext(t *testing.T) {
	agents := testAgents(6)
	inputs := []market.WindowInput{
		{Generation: 0.30, Load: 0.10}, // seller +0.20
		{Generation: 0.25, Load: 0.10}, // seller +0.15
		{Generation: 0.00, Load: 0.30}, // buyer −0.30
		{Generation: 0.05, Load: 0.25}, // buyer −0.20
		{Generation: 0.02, Load: 0.32}, // buyer −0.30
		{Generation: 0.10, Load: 0.10}, // off
	}
	res := runOneWindow(t, testConfig(1), agents, inputs)
	if res.Kind != market.GeneralMarket {
		t.Fatalf("kind = %v", res.Kind)
	}
	if res.Degenerate {
		t.Fatal("window marked degenerate")
	}
	assertMatchesPlaintext(t, res, agents, inputs)
}

func TestExtremeMarketMatchesPlaintext(t *testing.T) {
	agents := testAgents(5)
	inputs := []market.WindowInput{
		{Generation: 0.50, Load: 0.10}, // seller +0.40
		{Generation: 0.40, Load: 0.10}, // seller +0.30
		{Generation: 0.30, Load: 0.05}, // seller +0.25
		{Generation: 0.00, Load: 0.20}, // buyer −0.20
		{Generation: 0.00, Load: 0.15}, // buyer −0.15
	}
	res := runOneWindow(t, testConfig(2), agents, inputs)
	if res.Kind != market.ExtremeMarket {
		t.Fatalf("kind = %v", res.Kind)
	}
	if res.Price != market.DefaultParams().PriceFloor {
		t.Fatalf("price = %v, want floor", res.Price)
	}
	assertMatchesPlaintext(t, res, agents, inputs)
}

func TestDegenerateNoSellers(t *testing.T) {
	agents := testAgents(3)
	inputs := []market.WindowInput{
		{Load: 0.2}, {Load: 0.1}, {Load: 0.3},
	}
	res := runOneWindow(t, testConfig(3), agents, inputs)
	if !res.Degenerate {
		t.Fatal("expected degenerate window")
	}
	if res.Price != market.DefaultParams().GridRetailPrice {
		t.Fatalf("price = %v, want retail", res.Price)
	}
	if len(res.Trades) != 0 {
		t.Fatal("no trades expected")
	}
}

func TestDegenerateNoBuyers(t *testing.T) {
	agents := testAgents(3)
	inputs := []market.WindowInput{
		{Generation: 0.2}, {Generation: 0.1}, {Generation: 0.3},
	}
	res := runOneWindow(t, testConfig(4), agents, inputs)
	if !res.Degenerate {
		t.Fatal("expected degenerate window")
	}
	if res.Price != market.DefaultParams().PriceFloor {
		t.Fatalf("price = %v, want floor", res.Price)
	}
}

func TestPriceClampedToFloor(t *testing.T) {
	// Tiny k values force p̂ below the floor.
	agents := testAgents(4)
	for i := range agents {
		agents[i].K = 10
	}
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},  // seller
		{Generation: 0.0, Load: 0.3},  // buyer
		{Generation: 0.0, Load: 0.2},  // buyer
		{Generation: 0.0, Load: 0.25}, // buyer
	}
	res := runOneWindow(t, testConfig(5), agents, inputs)
	if res.Kind != market.GeneralMarket {
		t.Fatalf("kind = %v", res.Kind)
	}
	if res.Price != market.DefaultParams().PriceFloor {
		t.Fatalf("price = %v, want clamped to floor", res.Price)
	}
	if res.PHat >= market.DefaultParams().PriceFloor {
		t.Fatalf("pHat = %v, expected below floor", res.PHat)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	agents := testAgents(5)
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.0, Load: 0.15},
		{Generation: 0.25, Load: 0.1},
		{Generation: 0.0, Load: 0.18},
	}
	r1 := runOneWindow(t, testConfig(7), agents, inputs)
	r2 := runOneWindow(t, testConfig(7), agents, inputs)
	if r1.Kind != r2.Kind || math.Abs(r1.Price-r2.Price) > 1e-12 {
		t.Fatal("same seed produced different outcomes")
	}
	if len(r1.Trades) != len(r2.Trades) {
		t.Fatal("same seed produced different trade counts")
	}
	for i := range r1.Trades {
		if r1.Trades[i] != r2.Trades[i] {
			t.Fatalf("trade %d differs across runs", i)
		}
	}
}

func TestPreEncryptEquivalence(t *testing.T) {
	agents := testAgents(4)
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.2, Load: 0.1},
	}
	cfgOn := testConfig(8)
	cfgOff := testConfig(8)
	cfgOff.PreEncrypt = false
	rOn := runOneWindow(t, cfgOn, agents, inputs)
	rOff := runOneWindow(t, cfgOff, agents, inputs)
	if rOn.Kind != rOff.Kind || math.Abs(rOn.Price-rOff.Price) > 1e-9 {
		t.Fatal("PreEncrypt changed the outcome")
	}
}

func TestMultiWindowFromDataset(t *testing.T) {
	tr, err := dataset.Generate(dataset.Config{Homes: 8, Windows: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	agents := tr.Agents()
	eng, err := NewEngine(testConfig(9), agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	for w := 0; w < tr.Windows; w++ {
		inputs, err := tr.WindowInputs(w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunWindow(ctx, w, inputs)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if !res.Degenerate {
			assertMatchesPlaintext(t, res, agents, inputs)
		}
		if res.BytesOnWire <= 0 {
			t.Fatalf("window %d: no traffic recorded", w)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(testConfig(1), nil); err == nil {
		t.Error("no agents accepted")
	}
	dup := []market.Agent{
		{ID: "x", K: 10, Epsilon: 0.5},
		{ID: "x", K: 10, Epsilon: 0.5},
	}
	if _, err := NewEngine(testConfig(1), dup); err == nil {
		t.Error("duplicate IDs accepted")
	}
	bad := testConfig(1)
	for _, bits := range []int{16, 64, 255} { // below two plaintext slots
		bad.KeyBits = bits
		if _, err := NewEngine(bad, testAgents(2)); err == nil || !strings.Contains(err.Error(), "slots") {
			t.Errorf("%d-bit key: err = %v, want the two-slot floor", bits, err)
		}
	}
	if _, err := NewEngineWith(testConfig(1), testAgents(2), Resources{Scope: "w3"}); err == nil {
		t.Error("window-shaped scope accepted")
	}
}

func TestRunWindowInputMismatch(t *testing.T) {
	eng, err := NewEngine(testConfig(1), testAgents(3))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.RunWindow(context.Background(), 0, nil); err == nil {
		t.Error("input length mismatch accepted")
	}
}

func TestFaultInjectionFailAll(t *testing.T) {
	agents := testAgents(4)
	eng, err := NewEngine(testConfig(12), agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Party 2's sends all fail: the window must error out, not hang or
	// return bogus trades.
	p := eng.Parties()[2]
	fc := transport.NewFaultConn(partyConn(p))
	fc.FailAll()
	p.ReplaceConn(fc)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.2, Load: 0.1},
	}
	if _, err := eng.RunWindow(ctx, 0, inputs); err == nil {
		t.Fatal("window with dead party succeeded")
	}
}

func TestFaultInjectionCorruptedRole(t *testing.T) {
	agents := testAgents(4)
	eng, err := NewEngine(testConfig(13), agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p := eng.Parties()[1]
	fc := transport.NewFaultConn(partyConn(p))
	fc.CorruptNext("w0/role", 3) // corrupt all role announcements
	p.ReplaceConn(fc)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.2, Load: 0.1},
	}
	if _, err := eng.RunWindow(ctx, 0, inputs); err == nil {
		t.Fatal("window with corrupted roles succeeded")
	}
}

// partyConn exposes the party's transport for wrapping in tests.
func partyConn(p *Party) transport.Conn { return p.conn }

// buildRoster fills the selection fields on a fresh roster.
func buildRoster(window int, all, sellers, buyers []string) *roster {
	return fillRoster(new(roster), window, all, sellers, buyers)
}

func TestRosterSelectionDeterministic(t *testing.T) {
	sellers := []string{"s1", "s2", "s3"}
	buyers := []string{"b1", "b2"}
	r1 := buildRoster(5, nil, sellers, buyers)
	r2 := buildRoster(5, nil, sellers, buyers)
	if r1.hr1 != r2.hr1 || r1.hr2 != r2.hr2 || r1.hb != r2.hb {
		t.Error("roster selection not deterministic")
	}
	if !contains(sellers, r1.hr1) {
		t.Error("hr1 not a seller")
	}
	if !contains(buyers, r1.hr2) || !contains(buyers, r1.hb) {
		t.Error("hr2/hb not buyers")
	}
	// Different windows should (eventually) choose different parties.
	diff := false
	for w := 0; w < 20 && !diff; w++ {
		r := buildRoster(w, nil, sellers, buyers)
		if r.hr1 != r1.hr1 {
			diff = true
		}
	}
	if !diff {
		t.Error("hr1 never rotates across windows")
	}
}

func TestRatioCodec(t *testing.T) {
	in := []float64{0.25, 0.5, 0.25}
	raw := encodeRatios(in)
	if len(raw) != 8*len(in) {
		t.Fatalf("%d-member vector is %d bytes, want %d", len(in), len(raw), 8*len(in))
	}
	out, err := decodeRatios(raw, len(in), "hs", "w0/pd/ratios")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out, in) {
		t.Errorf("ratios %v decoded to %v", in, out)
	}
	// A frame of any other length is refused: truncations, and a vector
	// for a roster of another size.
	for _, cut := range []int{0, 1, 7, len(raw) - 1} {
		if _, err := decodeRatios(raw[:cut], len(in), "hs", "w0/pd/ratios"); err == nil {
			t.Errorf("truncated ratios at %d accepted", cut)
		}
	}
	for _, n := range []int{len(in) - 1, len(in) + 1} {
		if _, err := decodeRatios(raw, n, "hs", "w0/pd/ratios"); err == nil {
			t.Errorf("%d-word vector accepted for a %d-member roster", len(in), n)
		}
	}
}

func TestRandomizedWindowsMatchPlaintext(t *testing.T) {
	// Property-style integration test: random fleets and inputs, private
	// outcome must match the plaintext reference in every regime.
	if testing.Short() {
		t.Skip("slow: many protocol rounds")
	}
	rng := mrand.New(mrand.NewSource(4242))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(5)
		agents := make([]market.Agent, n)
		inputs := make([]market.WindowInput, n)
		for i := range agents {
			agents[i] = market.Agent{
				ID:      fmt.Sprintf("r%d-%d", trial, i),
				K:       60 + rng.Float64()*60,
				Epsilon: 0.6 + rng.Float64()*0.3,
			}
			inputs[i] = market.WindowInput{
				Generation: rng.Float64() * 0.4,
				Load:       rng.Float64() * 0.4,
				Battery:    (rng.Float64() - 0.5) * 0.05,
			}
		}
		res := runOneWindow(t, testConfig(int64(5000+trial)), agents, inputs)
		if !res.Degenerate {
			assertMatchesPlaintext(t, res, agents, inputs)
		}
	}
}

func TestMetricsAccumulateAcrossWindows(t *testing.T) {
	agents := testAgents(4)
	eng, err := NewEngine(testConfig(6262), agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.25, Load: 0.1},
	}
	r1, err := eng.RunWindow(ctx, 0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	total1 := eng.Metrics().TotalBytes()
	r2, err := eng.RunWindow(ctx, 1, inputs)
	if err != nil {
		t.Fatal(err)
	}
	total2 := eng.Metrics().TotalBytes()
	if total2 <= total1 {
		t.Error("metrics did not accumulate")
	}
	if r1.BytesOnWire <= 0 || r2.BytesOnWire <= 0 {
		t.Error("per-window byte accounting missing")
	}
	// Comparable windows should cost comparable traffic.
	ratio := float64(r2.BytesOnWire) / float64(r1.BytesOnWire)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("window traffic ratio %v suspicious", ratio)
	}
}

// TestKeyRingEvictZeroesScalar: Evict zeroes a home's X25519 scalar with
// its Paillier private half, a paillier engine's request builds no X25519
// key, and a seeded ring keyed again derives the same key as before.
func TestKeyRingEvictZeroesScalar(t *testing.T) {
	ring := NewKeyRing(testConfig(5))
	_, dh, err := ring.key("h", true)
	if err != nil || dh == nil {
		t.Fatalf("key: %v, %v", dh, err)
	}
	if _, none, _ := ring.key("h", false); none != nil {
		t.Error("a request without withDH built an X25519 key")
	}
	k := ring.keys["h"]
	ring.Evict("h")
	if k.scalar != ([32]byte{}) || ring.Holds("h") {
		t.Errorf("evicted home: scalar %x, still held %v", k.scalar, ring.Holds("h"))
	}
	if _, again, err := ring.key("h", true); err != nil || !again.PublicKey().Equal(dh.PublicKey()) {
		t.Errorf("re-keyed home: %v, public key changed %v", err, again != nil && !again.PublicKey().Equal(dh.PublicKey()))
	}
}
