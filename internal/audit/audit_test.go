// Package audit holds only tests: a post-hoc check of a window's clearing
// against the market rules, and one tampered clearing per rule that the
// check must reject. market's TestAllocationConservationProperty asserts
// the same rules on every sampled clearing; these tests show each rule
// catches the corruption it exists for.
package audit

import (
	"fmt"
	"math"
	"testing"

	"github.com/pem-go/pem/internal/market"
)

// Tolerances for floating/fixed-point comparisons.
const (
	energyTol  = 1e-4
	paymentTol = 1e-2
	priceTol   = 1e-6
)

// verifyClearing lists every market rule c breaks: price in its corridor
// (floor for an extreme market, retail with no sellers), the regime
// matching supply against demand, payments at the clearing price, traded
// energy equal to the short side, and Section III-D's pro-rata shares.
func verifyClearing(c *market.Clearing, params market.Params) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	switch {
	case len(c.SellerIDs) == 0:
		if math.Abs(c.Price-params.GridRetailPrice) > priceTol {
			add("price: seller-less window priced %.6f, want retail %.2f", c.Price, params.GridRetailPrice)
		}
	case c.Kind == market.ExtremeMarket:
		if math.Abs(c.Price-params.PriceFloor) > priceTol {
			add("price: extreme market priced %.6f, want floor %.2f", c.Price, params.PriceFloor)
		}
	case c.Price < params.PriceFloor-priceTol || c.Price > params.PriceCeil+priceTol:
		add("price: general-market price %.6f outside [%.2f, %.2f]", c.Price, params.PriceFloor, params.PriceCeil)
	}

	traded := 0.0
	bySeller := map[string]float64{}
	byBuyer := map[string]float64{}
	for _, tr := range c.Trades {
		traded += tr.Energy
		bySeller[tr.Seller] += tr.Energy
		byBuyer[tr.Buyer] += tr.Energy
		if tr.Energy < -energyTol {
			add("trade: %s->%s negative energy %.6f", tr.Seller, tr.Buyer, tr.Energy)
		}
		if math.Abs(tr.Payment-tr.Energy*c.Price) > paymentTol {
			add("payment: %s->%s paid %.4f for %.6f kWh at %.4f", tr.Seller, tr.Buyer, tr.Payment, tr.Energy, c.Price)
		}
	}
	if len(c.SellerIDs) == 0 || len(c.BuyerIDs) == 0 {
		return bad
	}

	if (c.Kind == market.ExtremeMarket) != (c.Supply >= c.Demand) {
		add("regime: kind %v with supply %.6f vs demand %.6f", c.Kind, c.Supply, c.Demand)
	}
	if short := math.Min(c.Supply, c.Demand); math.Abs(traded-short) > energyTol*float64(len(c.Trades)+1) {
		add("conservation: traded %.6f, short side %.6f", traded, short)
	}
	// The short side trades its whole position; the long side trades in
	// proportion to its own.
	for _, o := range c.Outcomes {
		var got, want float64
		switch {
		case o.Role == market.RoleSeller && c.Kind == market.GeneralMarket:
			got, want = bySeller[o.ID], o.Net
		case o.Role == market.RoleSeller:
			got, want = bySeller[o.ID], c.Demand*o.Net/c.Supply
		case o.Role == market.RoleBuyer && c.Kind == market.GeneralMarket:
			got, want = byBuyer[o.ID], c.Supply*-o.Net/c.Demand
		case o.Role == market.RoleBuyer:
			got, want = byBuyer[o.ID], -o.Net
		default:
			continue
		}
		if math.Abs(got-want) > energyTol*10 {
			add("pro-rata: %s %s traded %.6f, want %.6f", o.Role, o.ID, got, want)
		}
	}
	return bad
}

// clearScenario clears a general market: two sellers (0.43 kWh) against
// three buyers (0.73 kWh).
func clearScenario(t *testing.T) (*market.Clearing, market.Params) {
	t.Helper()
	agents := []market.Agent{
		{ID: "s1", K: 85, Epsilon: 0.9},
		{ID: "s2", K: 75, Epsilon: 0.85},
		{ID: "b1", K: 80, Epsilon: 0.9},
		{ID: "b2", K: 90, Epsilon: 0.8},
		{ID: "b3", K: 70, Epsilon: 0.85},
	}
	inputs := []market.WindowInput{
		{Generation: 0.35, Load: 0.10}, // +0.25
		{Generation: 0.30, Load: 0.12}, // +0.18
		{Generation: 0.00, Load: 0.30}, // −0.30
		{Generation: 0.02, Load: 0.25}, // −0.23
		{Generation: 0.00, Load: 0.20}, // −0.20
	}
	params := market.DefaultParams()
	c, err := market.Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	return c, params
}

func TestVerifyCleanClearing(t *testing.T) {
	c, params := clearScenario(t)
	if bad := verifyClearing(c, params); len(bad) != 0 {
		t.Fatalf("clean clearing flagged: %v", bad)
	}
}

func TestVerifyDetectsPriceOutOfBand(t *testing.T) {
	c, params := clearScenario(t)
	c.Price = 150 // outside [90, 110]
	if len(verifyClearing(c, params)) == 0 {
		t.Fatal("out-of-band price not detected")
	}
}

func TestVerifyDetectsSkimmedPayment(t *testing.T) {
	c, params := clearScenario(t)
	c.Trades[0].Payment *= 0.5
	if len(verifyClearing(c, params)) == 0 {
		t.Fatal("skimmed payment not detected")
	}
}

func TestVerifyDetectsMissingTrade(t *testing.T) {
	c, params := clearScenario(t)
	c.Trades = c.Trades[1:] // drop one allocation
	if len(verifyClearing(c, params)) == 0 {
		t.Fatal("dropped trade not detected")
	}
}

func TestVerifyDetectsWrongRegime(t *testing.T) {
	c, params := clearScenario(t)
	c.Kind = market.ExtremeMarket // supply < demand, so this lies
	if len(verifyClearing(c, params)) == 0 {
		t.Fatal("wrong regime not detected")
	}
}

func TestVerifyDetectsSkewedShares(t *testing.T) {
	c, params := clearScenario(t)
	// Move energy from one buyer to another, keeping totals constant.
	moved := false
	for i := range c.Trades {
		if c.Trades[i].Buyer == "b1" && !moved {
			c.Trades[i].Energy += 0.05
			c.Trades[i].Payment = c.Trades[i].Energy * c.Price
		}
		if c.Trades[i].Buyer == "b2" && !moved {
			c.Trades[i].Energy -= 0.05
			c.Trades[i].Payment = c.Trades[i].Energy * c.Price
			moved = true
		}
	}
	if len(verifyClearing(c, params)) == 0 {
		t.Fatal("skewed pro-rata shares not detected")
	}
}
