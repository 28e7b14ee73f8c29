package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// integerOracle recomputes a window's trades from the plaintext inputs with
// the protocol's own integer pipeline — E = Σ|sn_j|, masked_j =
// E·round(10^12/|sn_j|), ratio_j = 10^12/masked_j, e_ij and the payment
// quantized as they go on the wire — so a private run that recovered the
// same integers reproduces it bit for bit.
func integerOracle(t *testing.T, res *WindowResult, agents []market.Agent, inputs []market.WindowInput) []market.Trade {
	t.Helper()
	type member struct {
		id string
		sn fixed.Value
	}
	var sellers, buyers []member
	for i, in := range inputs {
		sn, err := fixed.FromFloat(in.NetEnergy())
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case sn > 0:
			sellers = append(sellers, member{agents[i].ID, sn})
		case sn < 0:
			buyers = append(buyers, member{agents[i].ID, -sn})
		}
	}
	demand, supply := buyers, sellers
	if res.Kind == market.ExtremeMarket {
		demand, supply = sellers, buyers
	}
	total := new(big.Int)
	for _, d := range demand {
		total.Add(total, big.NewInt(int64(d.sn)))
	}
	var trades []market.Trade
	for _, s := range supply {
		for _, d := range demand {
			k, err := fixed.ReciprocalExponent(d.sn)
			if err != nil {
				t.Fatal(err)
			}
			ratio, err := fixed.RatioFromMasked(k.Mul(k, total))
			if err != nil {
				t.Fatal(err)
			}
			ev, err := fixed.FromFloat(s.sn.Float() * ratio)
			if err != nil {
				t.Fatal(err)
			}
			e := ev.Float()
			if res.Kind == market.ExtremeMarket {
				trades = append(trades, market.Trade{Seller: d.id, Buyer: s.id, Energy: e, Payment: e * res.Price})
				continue
			}
			pay, err := fixed.FromFloat(e * res.Price)
			if err != nil {
				t.Fatal(err)
			}
			trades = append(trades, market.Trade{Seller: s.id, Buyer: d.id, Energy: e, Payment: pay.Float()})
		}
	}
	return trades
}

// assertTradesExactly compares a window's trades with the oracle's as a
// set: same pairs, bit-identical energy and payment.
func assertTradesExactly(t *testing.T, label string, got, want []market.Trade) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trades, oracle has %d", label, len(got), len(want))
	}
	type pair struct{ s, b string }
	byPair := make(map[pair]market.Trade, len(want))
	for _, tr := range want {
		byPair[pair{tr.Seller, tr.Buyer}] = tr
	}
	for _, tr := range got {
		if w, ok := byPair[pair{tr.Seller, tr.Buyer}]; !ok || tr != w {
			t.Fatalf("%s: trade %+v, oracle %+v", label, tr, w)
		}
	}
}

// TestPackedRatiosAcrossBatchSplits drives Protocol 4's packed decryption
// through its batch boundaries — demand sides of slots−1, slots, slots+1,
// slots+2, 2·slots−1, 2·slots+1 and 3·slots members (a part-filled batch;
// one full batch; two batches, three ways; three uneven; three full) on
// 1024-bit keys, the smallest that batch more than one ciphertext (5
// slots), in both market regimes — and Protocol 3's packed pair with them;
// demand sides of 1, 2 and 3 are the edges of the
// hybrid backend's masked step 1 (a root with nothing to fold, one hop, the
// first tree with an odd member). The hybrid tree reproduces the integer
// oracle bit for bit and market.Clear within fixed-point rounding; every
// other backend × topology cell is TestInvariantMatrix's.
func TestPackedRatiosAcrossBatchSplits(t *testing.T) {
	const keyBits = 1024
	key, err := paillier.GenerateKey(nil, keyBits)
	if err != nil {
		t.Fatal(err)
	}
	slots := key.Slots(fixed.MaskedProductBits(16)) // as many at every demand side up to 16
	if slots < 2 {
		t.Fatalf("%d-bit keys hold %d slot(s): no batch to split", keyBits, slots)
	}
	for _, kind := range []market.Kind{market.GeneralMarket, market.ExtremeMarket} {
		for _, demand := range slices.Compact([]int{1, 2, 3, slots - 1, slots, slots + 1, slots + 2, 2*slots - 1, 2*slots + 1, 3 * slots}) {
			t.Run(fmt.Sprintf("%v/demand=%d", kind, demand), func(t *testing.T) {
				const supply = 3
				agents := testAgents(demand + supply)
				inputs := make([]market.WindowInput, len(agents))
				for i := range inputs {
					big, small := 0.31+0.013*float64(i), 0.02+0.001*float64(i)
					onDemandSide := i%(len(inputs)/supply) != 0 || i/(len(inputs)/supply) >= supply
					// General market: the demand side buys, and outweighs supply.
					if onDemandSide == (kind == market.GeneralMarket) {
						inputs[i] = market.WindowInput{Load: big}
					} else {
						inputs[i] = market.WindowInput{Generation: big}
					}
					if !onDemandSide {
						inputs[i].Generation *= small
						inputs[i].Load *= small
					}
				}
				cfg := testConfig(int64(9000 + demand))
				cfg.KeyBits, cfg.CryptoBackend, cfg.Aggregation = keyBits, BackendHybrid, AggregationTree
				res := runOneWindow(t, cfg, agents, inputs)
				if res.Kind != kind || res.Degenerate {
					t.Fatalf("kind = %v, degenerate = %v", res.Kind, res.Degenerate)
				}
				demandSide := res.BuyerCount
				if kind == market.ExtremeMarket {
					demandSide = res.SellerCount
				}
				if demandSide != demand {
					t.Fatalf("demand side has %d members, want %d", demandSide, demand)
				}
				assertTradesExactly(t, "integer oracle", res.Trades, integerOracle(t, res, agents, inputs))
				assertMatchesPlaintext(t, res, agents, inputs)
			})
		}
	}
}

// boundWindow is an eight-agent window at the public share bound: sellers of
// 0.4 and 0.3 kWh, a buyer of 1 µkWh — the largest reciprocal exponent,
// 10^12 — and five buyers at exactly fixed.MaxShare, so E_b·10^12 is the
// widest masked product Hs opens at d = 6.
func boundWindow() []market.WindowInput {
	inputs := make([]market.WindowInput, 8)
	inputs[0] = market.WindowInput{Generation: 0.4}
	inputs[1] = market.WindowInput{Generation: 0.3}
	inputs[2] = market.WindowInput{Load: 1e-6}
	for i := 3; i < len(inputs); i++ {
		inputs[i] = market.WindowInput{Load: fixed.MaxShare.Float()}
	}
	return inputs
}

// assertShareRefused checks that err refuses window w for agent id's share:
// a *WindowError matching market.ErrShareBound, in the words market.Clear
// refuses the same inputs with.
func assertShareRefused(t *testing.T, err error, w int, id string, agents []market.Agent, inputs []market.WindowInput) {
	t.Helper()
	var we *WindowError
	if !errors.As(err, &we) || we.Window != w || !errors.Is(err, market.ErrShareBound) {
		t.Fatalf("window %d: err = %v, want a *WindowError matching ErrShareBound", w, err)
	}
	_, clrErr := market.Clear(agents, inputs, market.DefaultParams())
	if !errors.Is(clrErr, market.ErrShareBound) || !strings.HasPrefix(clrErr.Error(), "agent "+id+": ") || !strings.HasSuffix(err.Error(), ": "+clrErr.Error()) {
		t.Fatalf("window %d: engine refused with %q, market.Clear with %v; want both naming %s", w, err, clrErr, id)
	}
}

// TestShareBound: a window at exactly fixed.MaxShare trades on both backends
// and topologies, bit for bit like the integer oracle and within rounding of
// market.Clear. One µkWh more, on a buyer or on a seller, is refused before
// any byte is sent — by an engine, which checks every input before it
// launches a party, and by a standalone party, which checks its own — with a
// *WindowError that matches market.ErrShareBound and names the agent, in
// the words market.Clear refuses the same input with.
func TestShareBound(t *testing.T) {
	agents := testAgents(8)
	overBuyer, overSeller := boundWindow(), boundWindow()
	overBuyer[3].Load = (fixed.MaxShare + 1).Float()
	overSeller[1].Generation = (fixed.MaxShare + 1).Float()
	cfg := testConfig(9100)
	cfg.KeyBits = 512
	for _, backend := range []string{BackendPaillier, BackendHybrid} {
		for _, topo := range []string{AggregationRing, AggregationTree} {
			cfg.CryptoBackend, cfg.Aggregation = backend, topo
			eng, err := NewEngine(cfg, agents)
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.RunWindow(t.Context(), 0, overBuyer)
			assertShareRefused(t, err, 0, "a03", agents, overBuyer)
			_, err = eng.RunWindow(t.Context(), 1, overSeller)
			assertShareRefused(t, err, 1, "a01", agents, overSeller)
			if n := eng.Metrics().TotalBytes(); n != 0 {
				t.Errorf("%s/%s: %d bytes sent by refused windows, want 0", backend, topo, n)
			}
			res, err := eng.RunWindow(t.Context(), 2, boundWindow())
			eng.Close()
			if err != nil {
				t.Fatalf("%s/%s: window at the bound: %v", backend, topo, err)
			}
			assertTradesExactly(t, "integer oracle", res.Trades, integerOracle(t, res, agents, boundWindow()))
			assertMatchesPlaintext(t, res, agents, boundWindow())
		}
	}

	bus := transport.NewBus(transport.NewMetrics())
	parties := make([]*Party, 2)
	peers := []string{"a00", "a01"}
	for i := range parties {
		p, err := NewStandaloneParty(testConfig(9101), agents[i], bus.MustRegister(peers[i]))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		parties[i] = p
	}
	errs := make([]error, len(parties))
	var wg sync.WaitGroup
	for i, p := range parties {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.ExchangeKeys(t.Context(), peers)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	sent := bus.Metrics().TotalBytes()
	_, err := parties[1].RunTradingWindow(t.Context(), 0, overSeller[1])
	assertShareRefused(t, err, 0, "a01", agents, overSeller)
	if n := bus.Metrics().TotalBytes() - sent; n != 0 {
		t.Errorf("standalone party sent %d bytes for a refused share, want 0", n)
	}
}

// TestComparatorAtShareBound: Protocol 2's comparator decides the sign of
// E_b − E_s from fixed.ComparatorBits(m) low bits, where m is the larger
// side. At m = 3, 7, 15 and 31 the widest difference, m·MaxShare, sits
// just below a power of two: m members of one side at exactly
// fixed.MaxShare against one of the other at 1 µkWh, and the mirror,
// decide the kind market.Clear decides, trade like the integer oracle and
// agree across backends; so does a tie, E_b = E_s, with m members a side.
func TestComparatorAtShareBound(t *testing.T) {
	ring := NewKeyRing(testConfig(1))
	for _, m := range []int{3, 7, 15, 31} {
		atBound, oneMicro := slices.Repeat([]float64{fixed.MaxShare.Float()}, m), []float64{1e-6}
		for _, tc := range []struct {
			name            string
			buyers, sellers []float64
			want            market.Kind
		}{
			{"buyers", atBound, oneMicro, market.GeneralMarket},
			{"sellers", oneMicro, atBound, market.ExtremeMarket},
			{"tie", atBound, atBound, market.ExtremeMarket},
		} {
			var inputs []market.WindowInput
			for _, load := range tc.buyers {
				inputs = append(inputs, market.WindowInput{Load: load})
			}
			for _, gen := range tc.sellers {
				inputs = append(inputs, market.WindowInput{Generation: gen})
			}
			agents := testAgents(len(inputs))
			var results []*WindowResult
			for _, backend := range []string{BackendPaillier, BackendHybrid} {
				cfg := testConfig(int64(9300 + m))
				cfg.CryptoBackend = backend
				res := runOneWindowWith(t, cfg, Resources{Keys: ring}, agents, inputs)
				if res.Kind != tc.want {
					t.Fatalf("m=%d %s on %s: kind %v, want %v", m, tc.name, backend, res.Kind, tc.want)
				}
				assertMatchesPlaintext(t, res, agents, inputs)
				assertTradesExactly(t, fmt.Sprintf("m=%d %s on %s", m, tc.name, backend), res.Trades, integerOracle(t, res, agents, inputs))
				results = append(results, res)
			}
			assertSameOutcome(t, fmt.Sprintf("m=%d %s", m, tc.name), results[0], results[1])
		}
	}
}

// tamperMasked rewrites Protocol 4's masked products on their way to Hs:
// with[from] replaces the one sent by member from with a fresh encryption of
// that plaintext under Hs's key.
func tamperMasked(t *testing.T, eng *Engine, with map[string]*big.Int) {
	keys := make(map[string]*paillier.PublicKey)
	for _, p := range eng.parties {
		keys[p.ID()] = &p.key.PublicKey
	}
	rewriteFrames(eng, func(from, to, phase string, payload []byte) []byte {
		m, ok := with[from]
		if phase != "pd/masked" || !ok {
			return payload
		}
		c, err := keys[to].Encrypt(nil, m)
		if err == nil {
			payload, err = c.AppendFixed(nil, keys[to])
		}
		if err != nil {
			t.Error(err)
		}
		return payload
	})
}

// TestPackedRatiosAtMaxMagnitude: the windows that used to reach Protocol
// 4's refusals — five buyers of 2·10^12 µkWh, whose exponent rounds to 1 and
// whose ratios summed to 0.5, and of MaxInt64/8 µkWh, whose exponent is 0 —
// are refused before any frame by the share bound, naming a03. Within the
// bound no honest window reaches those refusals (TestShareBound trades the
// widest one), so each is reached here by rewriting masked products in the
// bound window, on both backends and topologies. Every member's value at
// 2·10^12 decodes to a ratio of 0.5 and the six sum to 3: a RatioSumError,
// whose message names the window once. One value of 0 is the
// zero-reciprocal refusal, and one of −1 does not fit its slot
// (paillier.ErrSlotOverflow); both name the member that sent it as Peer.
func TestPackedRatiosAtMaxMagnitude(t *testing.T) {
	agents := testAgents(8)
	var old [2][]market.WindowInput
	for i, share := range []fixed.Value{2 * fixed.RecipScale, (1<<63 - 1) / 8} {
		old[i] = boundWindow()
		for j := 3; j < len(old[i]); j++ {
			old[i][j].Load = share.Float()
		}
	}
	half := big.NewInt(2 * fixed.RecipScale)
	cases := []struct {
		with  map[string]*big.Int
		check func(error) bool
	}{
		{map[string]*big.Int{"a02": half, "a03": half, "a04": half, "a05": half, "a06": half, "a07": half}, func(err error) bool {
			var sumErr *RatioSumError
			return errors.As(err, &sumErr) && sumErr.Sum == 3 && strings.Count(err.Error(), "window 0") == 1
		}},
		{map[string]*big.Int{"a04": new(big.Int)}, func(err error) bool {
			var we *WindowError
			return errors.As(err, &we) && we.Peer == "a04" && strings.HasPrefix(we.Err.Error(), "fixed: masked ratio must be positive")
		}},
		{map[string]*big.Int{"a04": big.NewInt(-1)}, func(err error) bool {
			var we *WindowError
			return errors.Is(err, paillier.ErrSlotOverflow) && errors.As(err, &we) && we.Peer == "a04"
		}},
	}
	cfg := testConfig(9102)
	cfg.KeyBits = 512
	for _, backend := range []string{BackendPaillier, BackendHybrid} {
		for _, topo := range []string{AggregationRing, AggregationTree} {
			cfg.CryptoBackend, cfg.Aggregation = backend, topo
			eng, err := NewEngine(cfg, agents)
			if err != nil {
				t.Fatal(err)
			}
			for w, in := range old {
				_, err := eng.RunWindow(t.Context(), w, in)
				assertShareRefused(t, err, w, "a03", agents, in)
			}
			if n := eng.Metrics().TotalBytes(); n != 0 {
				t.Errorf("%s/%s: %d bytes sent by refused windows, want 0", backend, topo, n)
			}
			eng.Close()
			for i, c := range cases {
				eng, err := NewEngine(cfg, agents)
				if err != nil {
					t.Fatal(err)
				}
				tamperMasked(t, eng, c.with)
				_, err = eng.RunWindow(t.Context(), 0, boundWindow())
				eng.Close()
				var we *WindowError
				if !errors.As(err, &we) || we.Window != 0 || we.Phase != "distribution" || !c.check(err) {
					t.Errorf("%s/%s case %d: err = %v", backend, topo, i, err)
				}
			}
		}
	}
}

// TestPackedRatiosNameLowestMember: when two members' masked values do not
// decode — 2^300 is too wide for any slot, wherever a batch puts it — Hs
// names the one lowest in the demand side's roster, whatever order the
// values arrived in and however they were batched: 40 runs of one seeded
// window at 1024-bit keys (5 slots a batch, so the six values open as two
// batches of three), on both backends, must give one refusal.
func TestPackedRatiosNameLowestMember(t *testing.T) {
	agents := testAgents(8)
	wide := new(big.Int).Lsh(big.NewInt(1), 300)
	cfg := testConfig(9103)
	cfg.KeyBits = 1024
	ring := NewKeyRing(cfg)
	var want string
	for _, backend := range []string{BackendPaillier, BackendHybrid} {
		cfg.CryptoBackend = backend
		for run := range 40 {
			eng, err := NewEngineWith(cfg, agents, Resources{Keys: ring})
			if err != nil {
				t.Fatal(err)
			}
			tamperMasked(t, eng, map[string]*big.Int{"a04": wide, "a03": wide})
			_, err = eng.RunWindow(t.Context(), 0, boundWindow())
			eng.Close()
			var we *WindowError
			if !errors.As(err, &we) || we.Peer != "a03" {
				t.Fatalf("%s run %d: err = %v, want a refusal naming a03", backend, run, err)
			}
			if run == 0 && backend == BackendPaillier {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("%s run %d: err = %v, want %v", backend, run, err, want)
			}
		}
	}
}

// rewriteConn lets a test see — and replace — every frame a party sends.
type rewriteConn struct {
	transport.Conn
	// rewrite gets the bare protocol tag and returns the payload to send.
	rewrite func(from, to, phase string, payload []byte) []byte
}

func (c rewriteConn) Send(ctx context.Context, to, tag string, payload []byte) error {
	_, _, phase, _ := transport.ParseScopedWindowTag(tag)
	return c.Conn.Send(ctx, to, tag, c.rewrite(c.Party(), to, phase, payload))
}

// rewriteFrames routes every frame the engine's parties send through f.
func rewriteFrames(eng *Engine, f func(from, to, phase string, payload []byte) []byte) {
	for _, p := range eng.parties {
		p.ReplaceConn(rewriteConn{p.conn, f})
	}
}

// TestPaillierFrameLengths pins the width and the count of every backend frame of a
// window, in the style of gc.TestCompareFrameLengths. On the paillier
// backend each is one ciphertext at the key's FixedLen(), whatever it
// carries — the pricing hop included, which carried a pair (4 + 2·FixedLen
// bytes) before the two sums shared a plaintext. On hybrid every sum is a
// fixed 8- or 16-byte word — no ciphertext travels under Protocol 4's fold
// tag — and the only ciphertexts are Hs's unmasking one, the broadcast
// total and the masked products; its Protocol 2 is round A's fold alone,
// so no pme/rs or pme/cmp frame travels. On both, Hs's ratio vector is one
// 8-byte word per demand-side member, sent to every other supply-side member.
func TestPaillierFrameLengths(t *testing.T) {
	type frames struct{ count, size int }
	for _, tc := range []struct {
		bits, fixedLen int
	}{{256, 68}, {512, 132}, {1024, 260}} {
		for _, backend := range []string{BackendPaillier, BackendHybrid} {
			for _, topo := range []string{AggregationRing, AggregationTree} {
				label := fmt.Sprintf("bits=%d %s/%s", tc.bits, backend, topo)
				agents := testAgents(7)
				inputs := windowInputsMixed(len(agents))
				cfg := testConfig(int64(9200 + tc.bits))
				cfg.KeyBits, cfg.CryptoBackend, cfg.Aggregation = tc.bits, backend, topo
				eng, err := NewEngine(cfg, agents)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				lens := make(map[string][]int)
				rewriteFrames(eng, func(_, _, phase string, payload []byte) []byte {
					mu.Lock()
					lens[phase] = append(lens[phase], len(payload))
					mu.Unlock()
					return payload
				})
				res, err := eng.RunWindow(context.Background(), 0, inputs)
				eng.Close()
				if err != nil {
					t.Fatal(err)
				}
				if res.Kind != market.GeneralMarket {
					t.Fatalf("%s: kind = %v: Protocol 3 did not run", label, res.Kind)
				}
				// Hops per phase: a sum over m members is m frames in either
				// topology (m−1 folds and the delivery to the sink); Protocol
				// 4's root keeps its total, so its fold is m−1.
				sellers, buyers := res.SellerCount, res.BuyerCount
				want := map[string]frames{
					"pme/rb":    {sellers + buyers - 1, tc.fixedLen},
					"pme/rs":    {sellers + buyers - 1, tc.fixedLen},
					"pp/ring":   {sellers, tc.fixedLen},
					"pd/ring":   {buyers - 1, tc.fixedLen},
					"pd/unmask": {0, 0},
					"pd/total":  {buyers - 1, tc.fixedLen},
					"pd/masked": {buyers, tc.fixedLen},
					"pd/ratios": {sellers - 1, 8 * buyers},
				}
				if backend == BackendHybrid {
					want["pme/rb"] = frames{sellers + buyers - 1, 8}
					want["pme/rs"] = frames{0, 0}
					want["pme/cmp"] = frames{0, 0}
					want["pp/ring"] = frames{sellers, 16}
					want["pd/ring"] = frames{buyers - 1, 16}
					want["pd/unmask"] = frames{1, tc.fixedLen}
				}
				for phase, w := range want {
					got := lens[phase]
					if len(got) != w.count {
						t.Errorf("%s: %d %s frames, want %d", label, len(got), phase, w.count)
					}
					for _, n := range got {
						if n != w.size {
							t.Errorf("%s: %s frame of %d bytes, want %d", label, phase, n, w.size)
						}
					}
				}
			}
		}
	}
}
