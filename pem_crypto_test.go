package pem_test

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/pem-go/pem"
)

// cryptoTestAgents returns a mixed six-home fleet whose two windows land in
// a general market (surplus sellers plus deficit buyers).
func cryptoTestAgents() []pem.Agent {
	return []pem.Agent{
		{ID: "h0", K: 85, Epsilon: 0.90},
		{ID: "h1", K: 75, Epsilon: 0.85},
		{ID: "h2", K: 95, Epsilon: 0.90},
		{ID: "h3", K: 70, Epsilon: 0.80},
		{ID: "h4", K: 88, Epsilon: 0.88},
		{ID: "h5", K: 92, Epsilon: 0.75},
	}
}

func cryptoTestWindows() [][]pem.WindowInput {
	return [][]pem.WindowInput{
		{
			{Generation: 0.42, Load: 0.08},
			{Generation: 0.35, Load: 0.05, Battery: 0.01},
			{Generation: 0.00, Load: 0.22},
			{Generation: 0.04, Load: 0.28},
			{Generation: 0.31, Load: 0.02},
			{Generation: 0.02, Load: 0.19, Battery: -0.01},
		},
		{
			{Generation: 0.25, Load: 0.10},
			{Generation: 0.02, Load: 0.24},
			{Generation: 0.38, Load: 0.06},
			{Generation: 0.00, Load: 0.18},
			{Generation: 0.29, Load: 0.04, Battery: 0.02},
			{Generation: 0.05, Load: 0.26},
		},
	}
}

// runCryptoMarket runs the two-window scenario under one backend and
// returns the results plus the ledger for chain comparison.
func runCryptoMarket(t *testing.T, cfg pem.Config) ([]*pem.WindowResult, *pem.Ledger) {
	t.Helper()
	cfg.KeyBits = 256
	cfg.Seed = seedPtr(4242)
	m, err := pem.NewMarket(cfg, cryptoTestAgents())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := m.RunWindows(ctx, cryptoTestWindows())
	if err != nil {
		t.Fatal(err)
	}
	return results, m.Ledger()
}

// TestHybridPublicBitIdentical is the public-API property test of the
// hybrid backend: across both aggregation topologies and every network
// preset (plus no emulation), the hybrid backend must produce bit-identical
// clearing prices, allocations and ledger chains to the paillier backend,
// and both must match the plaintext oracle.
func TestHybridPublicBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full preset sweep")
	}
	presets := append([]string{""}, pem.NetworkPresets()...)
	for i, preset := range presets {
		// Alternate the topology so the sweep covers ring and tree folds
		// over emulated links without doubling the matrix.
		agg := pem.AggregationRing
		if i%2 == 1 {
			agg = pem.AggregationTree
		}
		name := preset
		if name == "" {
			name = "direct"
		}
		t.Run(name+"/"+agg, func(t *testing.T) {
			base := pem.Config{Network: preset, Aggregation: agg}

			paiCfg := base
			paiCfg.CryptoBackend = pem.BackendPaillier
			pai, paiLedger := runCryptoMarket(t, paiCfg)

			hybCfg := base
			hybCfg.CryptoBackend = pem.BackendHybrid
			hyb, hybLedger := runCryptoMarket(t, hybCfg)

			windows := cryptoTestWindows()
			for w := range pai {
				if pai[w].Kind != hyb[w].Kind || pai[w].Price != hyb[w].Price {
					t.Fatalf("w%d: kind/price diverge: %v/%v vs %v/%v",
						w, pai[w].Kind, pai[w].Price, hyb[w].Kind, hyb[w].Price)
				}
				if len(pai[w].Trades) != len(hyb[w].Trades) {
					t.Fatalf("w%d: %d vs %d trades", w, len(pai[w].Trades), len(hyb[w].Trades))
				}
				for i := range pai[w].Trades {
					if pai[w].Trades[i] != hyb[w].Trades[i] {
						t.Fatalf("w%d trade %d: %+v vs %+v", w, i, pai[w].Trades[i], hyb[w].Trades[i])
					}
				}
				clr, err := pem.Clear(cryptoTestAgents(), windows[w], pem.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				if hyb[w].Kind != clr.Kind || math.Abs(hyb[w].Price-clr.Price) > 1e-4 {
					t.Fatalf("w%d: oracle kind/price %v/%v, hybrid %v/%v",
						w, clr.Kind, clr.Price, hyb[w].Kind, hyb[w].Price)
				}
			}

			// Identical trades at identical prices must hash to the same
			// chain; both chains must verify.
			if err := paiLedger.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := hybLedger.Verify(); err != nil {
				t.Fatal(err)
			}
			paiHead, hybHead := paiLedger.Head().Hash, hybLedger.Head().Hash
			if paiHead != hybHead {
				t.Fatalf("ledger chains diverge: %x vs %x", paiHead[:8], hybHead[:8])
			}

			// The hybrid fast path must not inflate traffic: fixed-width
			// masked frames are strictly smaller than Paillier ciphertexts.
			if hyb[0].BytesOnWire >= pai[0].BytesOnWire {
				t.Errorf("hybrid wire cost %d ≥ paillier %d", hyb[0].BytesOnWire, pai[0].BytesOnWire)
			}
		})
	}
}

// TestHybridGridMatchesPaillier runs the sharded coalition grid under both
// backends: per-coalition results and the fleet settlement must agree
// exactly.
func TestHybridGridMatchesPaillier(t *testing.T) {
	tr := testFleetTrace(t, 2, 3, 2)
	run := func(backend string) *pem.GridResult {
		t.Helper()
		g, err := pem.NewGrid(pem.GridConfig{
			Market:     pem.Config{KeyBits: 256, Seed: seedPtr(12), CryptoBackend: backend},
			Coalitions: 2,
			Partition:  pem.PartitionBalanced,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
		defer cancel()
		res, err := g.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pai := run(pem.BackendPaillier)
	hyb := run(pem.BackendHybrid)

	if len(pai.Coalitions) != len(hyb.Coalitions) {
		t.Fatalf("coalition counts diverge: %d vs %d", len(pai.Coalitions), len(hyb.Coalitions))
	}
	for i := range pai.Coalitions {
		p, h := pai.Coalitions[i], hyb.Coalitions[i]
		if p.Err != nil || h.Err != nil {
			t.Fatalf("coalition %s errs: %v / %v", p.Name, p.Err, h.Err)
		}
		if len(p.Results) != len(h.Results) {
			t.Fatalf("coalition %s: %d vs %d windows", p.Name, len(p.Results), len(h.Results))
		}
		for w := range p.Results {
			if p.Results[w].Price != h.Results[w].Price || p.Results[w].Kind != h.Results[w].Kind {
				t.Fatalf("%s w%d: outcome diverges", p.Name, w)
			}
			for j := range p.Results[w].Trades {
				if p.Results[w].Trades[j] != h.Results[w].Trades[j] {
					t.Fatalf("%s w%d trade %d diverges", p.Name, w, j)
				}
			}
		}
	}
	if pai.Settlement.Fleet != hyb.Settlement.Fleet {
		t.Fatalf("fleet settlement diverges:\n%+v\nvs\n%+v", pai.Settlement.Fleet, hyb.Settlement.Fleet)
	}
}

// TestHybridLiveGridChurnMatchesPaillier reuses the epoched live-grid
// harness (churn, re-keying, conservation) under both backends: every
// agent's final position must be bit-identical, and conservation must hold
// under the hybrid backend independently.
func TestHybridLiveGridChurnMatchesPaillier(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: multi-epoch churn runs")
	}
	run := func(backend string) *pem.LiveGridResult {
		t.Helper()
		lg, err := pem.NewLiveGrid(pem.LiveGridConfig{
			Market:     pem.Config{KeyBits: 256, Seed: seedPtr(41), CryptoBackend: backend},
			Coalitions: 2,
			Partition:  pem.PartitionBalanced,
			Epochs:     3,
			Churn:      pem.ChurnConfig{JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1},
		}, pem.FleetConfig{
			Coalitions:        2,
			HomesPerCoalition: 4,
			Windows:           2,
			Seed:              7,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
		defer cancel()
		res, err := lg.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pai := run(pem.BackendPaillier)
	hyb := run(pem.BackendHybrid)

	if math.Abs(hyb.EnergyImbalanceKWh) > 1e-9 || math.Abs(hyb.PaymentImbalanceCents) > 1e-6 {
		t.Errorf("hybrid conservation violated: energy %v kWh, payments %v cents",
			hyb.EnergyImbalanceKWh, hyb.PaymentImbalanceCents)
	}
	if len(pai.Positions) != len(hyb.Positions) {
		t.Fatalf("position counts diverge: %d vs %d", len(pai.Positions), len(hyb.Positions))
	}
	for i := range pai.Positions {
		if pai.Positions[i] != hyb.Positions[i] {
			t.Fatalf("position %s diverged:\n%+v\nvs\n%+v",
				pai.Positions[i].ID, pai.Positions[i], hyb.Positions[i])
		}
	}
	for e := range pai.Epochs {
		if pai.Epochs[e].Windows != hyb.Epochs[e].Windows {
			t.Fatalf("epoch %d window counts diverge", e)
		}
	}
}

// TestRoleAtFixedPointBoundary is the regression test for the one place the
// oracle and the protocols used to disagree: in window 606 of the seed-8919
// day one home's net energy is a fraction of a micro-kWh, so a party — which
// takes its role from its net energy in micro-kWh fixed point — sits the
// window out, while the oracle's old 1e-9 kWh threshold seated it as a
// seller and moved the price by ≈ 0.7 ¢. Both now classify at the
// protocols' resolution.
func TestRoleAtFixedPointBoundary(t *testing.T) {
	const window = 606
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 32, Windows: 720, Seed: 8919})
	if err != nil {
		t.Fatal(err)
	}
	inputs := mustInputs(t, tr, window)
	boundary := 0
	for _, in := range inputs {
		if net := in.NetEnergy(); net != 0 && math.Abs(net) < 0.5e-6 {
			boundary++
		}
	}
	if boundary == 0 {
		t.Fatal("the trace no longer has a sub-micro-kWh home in this window; pick another seed/window")
	}
	clr, err := pem.Clear(tr.Agents(), inputs, pem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{pem.BackendPaillier, pem.BackendHybrid} {
		t.Run(backend, func(t *testing.T) {
			m, err := pem.NewMarket(pem.Config{KeyBits: 256, Seed: seedPtr(8919), CryptoBackend: backend}, tr.Agents())
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			res, err := m.RunWindow(ctx, window, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind != clr.Kind || math.Abs(res.Price-clr.Price) > 1e-4 {
				t.Errorf("kind/price %v/%.6f, oracle %v/%.6f", res.Kind, res.Price, clr.Kind, clr.Price)
			}
			if res.SellerCount != len(clr.SellerIDs) || res.BuyerCount != len(clr.BuyerIDs) {
				t.Errorf("%d sellers / %d buyers, oracle %d / %d", res.SellerCount, res.BuyerCount, len(clr.SellerIDs), len(clr.BuyerIDs))
			}
			if len(res.Trades) != len(clr.Trades) {
				t.Errorf("%d trades, oracle %d", len(res.Trades), len(clr.Trades))
			}
		})
	}
}
