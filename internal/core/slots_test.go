package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// through its batch boundaries — demand sides of slots, slots+1, slots+2,
// 2·slots+1 and 3·slots members (one full batch; two uneven, twice; three
// uneven; three full) on 1024-bit keys, the smallest that batch more than
// one ciphertext (3 slots), in both market regimes — and Protocol 3's
// packed pair with them; demand sides of 1, 2 and 3 are the edges of the
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
	slots := key.Slots()
	if slots < 2 {
		t.Fatalf("%d-bit keys hold %d slot(s): no batch to split", keyBits, slots)
	}
	for _, kind := range []market.Kind{market.GeneralMarket, market.ExtremeMarket} {
		for _, demand := range slices.Compact([]int{1, 2, 3, slots, slots + 1, slots + 2, 2*slots + 1, 3 * slots}) {
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

// TestPackedRatiosAtMaxMagnitude is the boundary case of the slot bound
// (ROADMAP correctness item (d)): the widest masked product the reciprocal
// trick can produce — a 1 µ-unit member (k = 10^12, the largest exponent)
// next to members at the largest share that still has a non-zero
// reciprocal, 2·10^12 µ-units. There k = round(0.5) = 1 and the ratios sum
// to ≈ 0.5, so every backend and topology must refuse the window with a
// RatioSumError rather than sell half the sellers' surplus. One step
// further, shares near MaxInt64/n have round(10^12/|sn|) = 0: every
// configuration must refuse the window with the zero-reciprocal cause
// instead of trading on a zero ratio.
func TestPackedRatiosAtMaxMagnitude(t *testing.T) {
	agents := testAgents(8)
	window := func(share float64) []market.WindowInput {
		inputs := make([]market.WindowInput, len(agents))
		inputs[0] = market.WindowInput{Generation: 0.4}
		inputs[1] = market.WindowInput{Generation: 0.3}
		inputs[2] = market.WindowInput{Load: 1e-6} // |sn| = 1 µ-unit
		for i := 3; i < len(inputs); i++ {
			inputs[i] = market.WindowInput{Load: share}
		}
		return inputs
	}
	cfg := testConfig(9100)
	cfg.KeyBits = 512
	halfSold := window(2e6)                                 // 2·10^12 µ-units: k = round(0.5) = 1
	zeroRecip := window(float64(1<<63-1) / fixed.Scale / 8) // near MaxInt64/n
	for _, backend := range []string{BackendPaillier, BackendHybrid} {
		for _, topo := range []string{AggregationRing, AggregationTree} {
			cfg.CryptoBackend, cfg.Aggregation = backend, topo
			eng, err := NewEngine(cfg, agents)
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.RunWindow(context.Background(), 0, halfSold)
			var sumErr *RatioSumError
			if !errors.As(err, &sumErr) || sumErr.Window != 0 || math.Abs(sumErr.Sum-0.5) > 1e-6 {
				t.Errorf("%s/%s: err = %v, want a RatioSumError for window 0 at sum 0.5", backend, topo, err)
			}
			_, err = eng.RunWindow(context.Background(), 1, zeroRecip)
			eng.Close()
			if err == nil || !strings.Contains(err.Error(), "masked ratio must be positive") {
				t.Errorf("%s/%s: err = %v, want the zero-reciprocal refusal", backend, topo, err)
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
// total and the masked products. On both, Hs's ratio vector is one 8-byte
// word per demand-side member, sent to every other supply-side member.
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
					want["pme/rs"] = frames{sellers + buyers - 1, 8}
					want["pme/cmp"] = frames{1, 8}
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
