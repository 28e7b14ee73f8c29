package pem_test

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/pem-go/pem"
)

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
