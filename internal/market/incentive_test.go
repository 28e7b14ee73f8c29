package market

import (
	mrand "math/rand"
	"testing"
)

// Theorem 2's incentive-compatibility claim, checked empirically: replay a
// window with one agent misreporting and price both outcomes against the
// agent's TRUE physical position (a misreport changes what it claims, not
// what it has or needs).
//
// Reproduction note: the mechanism does NOT make demand inflation strictly
// unprofitable. A buyer whose honest allocation leaves part of its true
// demand uncovered can gain up to (pstg − p*) · (trueDemand − allocation) by
// capturing more of the cheap market supply; a seller symmetrically gains up
// to (p* − pbtg) · (trueSurplus − sold). This is why Protocol 4 hides E_b and
// |sn_j| from other buyers (Section IV-F): without them a rational
// semi-honest agent cannot gauge the inflation that stops short of
// over-trading, and over-trading turns the gain into a loss. The tests
// assert the gain never exceeds its bound and that over-inflation backfires.

// incentiveScenario is a general market: supply 0.43 kWh, demand 0.73 kWh.
func incentiveScenario() ([]Agent, []WindowInput) {
	agents := []Agent{
		{ID: "s1", K: 85, Epsilon: 0.9},
		{ID: "s2", K: 75, Epsilon: 0.85},
		{ID: "b1", K: 80, Epsilon: 0.9},
		{ID: "b2", K: 90, Epsilon: 0.8},
		{ID: "b3", K: 70, Epsilon: 0.85},
	}
	inputs := []WindowInput{
		{Generation: 0.35, Load: 0.10}, // +0.25
		{Generation: 0.30, Load: 0.12}, // +0.18
		{Generation: 0.00, Load: 0.30}, // −0.30
		{Generation: 0.02, Load: 0.25}, // −0.23
		{Generation: 0.00, Load: 0.20}, // −0.20
	}
	return agents, inputs
}

// clearHonestAndDeviant clears the window as reported and with agent idx
// claiming scale × its true net position.
func clearHonestAndDeviant(t *testing.T, agents []Agent, inputs []WindowInput, params Params, idx int, scale float64) (honest, deviant *Clearing) {
	t.Helper()
	honest, err := Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	lied := append([]WindowInput(nil), inputs...)
	if net := inputs[idx].NetEnergy(); net < 0 {
		lied[idx].Load -= (scale - 1) * net // inflated load: inflated demand
	} else {
		lied[idx].Generation += (scale - 1) * net // inflated generation: inflated supply
	}
	if deviant, err = Clear(agents, lied, params); err != nil {
		t.Fatal(err)
	}
	return honest, deviant
}

// buyerDemandInflation is buyer idx's payoff gain from claiming scale × its
// true demand.
func buyerDemandInflation(t *testing.T, agents []Agent, inputs []WindowInput, params Params, idx int, scale float64) float64 {
	trueDemand := -inputs[idx].NetEnergy()
	honest, deviant := clearHonestAndDeviant(t, agents, inputs, params, idx, scale)
	id := agents[idx].ID
	return buyerTrueCost(honest, id, trueDemand, params) - buyerTrueCost(deviant, id, trueDemand, params)
}

// buyerTrueCost prices a buyer's clearing against its true demand: market
// energy up to the true demand displaces retail purchases; energy beyond it
// was paid for at the market price but returns only pbtg from the grid.
func buyerTrueCost(c *Clearing, id string, trueDemand float64, params Params) float64 {
	var bought, cost float64
	for _, tr := range c.Trades {
		if tr.Buyer == id {
			bought += tr.Energy
			cost += tr.Payment
		}
	}
	if bought < trueDemand {
		return cost + (trueDemand-bought)*params.GridRetailPrice
	}
	return cost - (bought-trueDemand)*params.GridSellPrice
}

// sellerSupplyInflation is seller idx's payoff gain from claiming scale ×
// its true surplus (the extreme-market attack of Theorem 2's proof).
func sellerSupplyInflation(t *testing.T, agents []Agent, inputs []WindowInput, params Params, idx int, scale float64) float64 {
	trueSurplus := inputs[idx].NetEnergy()
	honest, deviant := clearHonestAndDeviant(t, agents, inputs, params, idx, scale)
	id := agents[idx].ID
	return sellerTrueRevenue(deviant, id, trueSurplus, params) - sellerTrueRevenue(honest, id, trueSurplus, params)
}

// sellerTrueRevenue prices a seller's clearing against its true surplus:
// market sales beyond it must be bought back from the grid at retail;
// unsold real surplus feeds in at pbtg.
func sellerTrueRevenue(c *Clearing, id string, trueSurplus float64, params Params) float64 {
	var sold, revenue float64
	for _, tr := range c.Trades {
		if tr.Seller == id {
			sold += tr.Energy
			revenue += tr.Payment
		}
	}
	if sold > trueSurplus {
		return revenue - (sold-trueSurplus)*params.GridRetailPrice
	}
	return revenue + (trueSurplus-sold)*params.GridSellPrice
}

// buyerInflationBound is the coverage-gap bound on a buyer's cheating gain:
// (pstg − p*) times the true demand its honest allocation left uncovered.
func buyerInflationBound(honest *Clearing, id string, trueDemand float64, params Params) float64 {
	uncovered := trueDemand
	for _, tr := range honest.Trades {
		if tr.Buyer == id {
			uncovered -= tr.Energy
		}
	}
	return (params.GridRetailPrice - honest.Price) * max(uncovered, 0)
}

// sellerInflationBound is the feed-in-gap bound on a seller's cheating gain:
// (p* − pbtg) times the true surplus its honest allocation left unsold.
func sellerInflationBound(honest *Clearing, id string, trueSurplus float64, params Params) float64 {
	unsold := trueSurplus
	for _, tr := range honest.Trades {
		if tr.Seller == id {
			unsold -= tr.Energy
		}
	}
	return (honest.Price - params.GridSellPrice) * max(unsold, 0)
}

func TestBuyerDemandInflationBoundedAndBackfires(t *testing.T) {
	agents, inputs := incentiveScenario()
	params := DefaultParams()
	honest, err := Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	// Deviant: b3, whose demand (0.20) is well below the market supply
	// (0.43), so heavy inflation over-buys far past its true need.
	const deviant = 4
	bound := buyerInflationBound(honest, agents[deviant].ID, -inputs[deviant].NetEnergy(), params)

	gains := map[float64]float64{}
	for _, scale := range []float64{1.5, 2, 5, 50} {
		gains[scale] = buyerDemandInflation(t, agents, inputs, params, deviant, scale)
		// The gain can be positive (the documented coverage gap) but never
		// exceeds the bound.
		if gains[scale] > bound+1e-9 {
			t.Errorf("scale %.1f: gain %v exceeds coverage-gap bound %v", scale, gains[scale], bound)
		}
	}
	// Mild inflation profits (the incentive gap Protocol 4 hides data to
	// blunt)…
	if gains[2] <= 0 {
		t.Errorf("expected positive gain at scale 2, got %v", gains[2])
	}
	// …but over-inflation backfires: phantom demand buys energy at the
	// market price that can only be resold at pbtg.
	if gains[50] >= gains[2] {
		t.Errorf("over-inflation did not backfire: gain(50)=%v ≥ gain(2)=%v", gains[50], gains[2])
	}
}

func TestSellerSupplyInflationBoundedAndBackfires(t *testing.T) {
	// Extreme market: plenty of supply.
	agents := []Agent{
		{ID: "s1", K: 85, Epsilon: 0.9},
		{ID: "s2", K: 75, Epsilon: 0.85},
		{ID: "s3", K: 95, Epsilon: 0.9},
		{ID: "b1", K: 80, Epsilon: 0.9},
	}
	// The buyer's demand (1.0) exceeds the deviant's true surplus (0.30),
	// so heavy inflation forces over-delivery.
	inputs := []WindowInput{
		{Generation: 0.40, Load: 0.10}, // +0.30 (deviant)
		{Generation: 0.90, Load: 0.10}, // +0.80
		{Generation: 0.80, Load: 0.10}, // +0.70
		{Generation: 0.00, Load: 1.00}, // −1.00
	}
	params := DefaultParams()
	honest, err := Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	bound := sellerInflationBound(honest, agents[0].ID, inputs[0].NetEnergy(), params)

	gains := map[float64]float64{}
	for _, scale := range []float64{1.5, 2, 4, 50} {
		gains[scale] = sellerSupplyInflation(t, agents, inputs, params, 0, scale)
		if gains[scale] > bound+1e-9 {
			t.Errorf("scale %.1f: gain %v exceeds feed-in-gap bound %v", scale, gains[scale], bound)
		}
	}
	// Over-inflation backfires: phantom supply must be bought back at
	// retail and sold at the floor price.
	if gains[50] >= gains[1.5] {
		t.Errorf("over-inflation did not backfire: gain(50)=%v ≥ gain(1.5)=%v", gains[50], gains[1.5])
	}
}

// TestIncentivePropertyRandomized: on random windows, no buyer's inflation
// gain exceeds its coverage-gap bound.
func TestIncentivePropertyRandomized(t *testing.T) {
	params := DefaultParams()
	rng := mrand.New(mrand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		agents := make([]Agent, n)
		inputs := make([]WindowInput, n)
		for i := range agents {
			agents[i] = Agent{
				ID:      "h" + string(rune('a'+i)),
				K:       60 + rng.Float64()*60,
				Epsilon: 0.6 + rng.Float64()*0.3,
			}
			inputs[i] = WindowInput{
				Generation: rng.Float64() * 0.3,
				Load:       rng.Float64() * 0.3,
			}
		}
		honest, err := Clear(agents, inputs, params)
		if err != nil {
			t.Fatal(err)
		}
		for i := range agents {
			if ClassifyRole(inputs[i].NetEnergy()) != RoleBuyer {
				continue
			}
			gain := buyerDemandInflation(t, agents, inputs, params, i, 1+rng.Float64()*3)
			bound := buyerInflationBound(honest, agents[i].ID, -inputs[i].NetEnergy(), params)
			if gain > bound+1e-6 {
				t.Fatalf("trial %d: buyer %s gain %v exceeds bound %v", trial, agents[i].ID, gain, bound)
			}
		}
	}
}
