package audit

import (
	"fmt"

	"github.com/pem-go/pem/internal/market"
)

// DeviationOutcome is the payoff comparison of one misreporting experiment.
type DeviationOutcome struct {
	// AgentID is the deviating agent.
	AgentID string
	// HonestPayoff is the agent's payoff (revenue for sellers, negative
	// cost for buyers) when everyone reports truthfully.
	HonestPayoff float64
	// DeviantPayoff is the payoff under the misreport, evaluated against
	// the agent's TRUE physical position (misreporting does not change
	// how much energy the agent actually has or needs).
	DeviantPayoff float64
}

// Gain is the payoff improvement achieved by cheating (≤ 0 for an
// incentive-compatible mechanism, up to market rounding).
func (d DeviationOutcome) Gain() float64 { return d.DeviantPayoff - d.HonestPayoff }

// BuyerDemandInflation replays a window where buyer agentIdx claims its
// demand is scale× the true value (scale > 1 inflates the claimed |sn| to
// grab a larger pro-rata share, the attack Protocol 4's design calls out).
// The deviant's bill is evaluated against its true demand: energy received
// beyond the true demand is surplus it cannot use and must feed back to
// the grid at pbtg (it was bought at the higher market price).
//
// Reproduction note: the mechanism does NOT make this deviation strictly
// unprofitable — a buyer whose honest allocation leaves part of its true
// demand uncovered can gain up to
//
//	(pstg − p*) · (trueDemand − honestAllocation)
//
// by capturing more of the cheap market supply. This is precisely why
// Protocol 4 hides E_b and |sn_j| from other buyers ("the market demand
// cannot be directly disclosed to the buyers", Section IV-F): without
// those values a rational semi-honest buyer cannot gauge the inflation
// that stops short of over-buying, and over-buying turns the gain into a
// loss (extra units bought at p* ≥ pl return only pbtg). The tests assert
// the gain never exceeds the coverage-gap bound and that over-inflation
// backfires.
func BuyerDemandInflation(agents []market.Agent, inputs []market.WindowInput, params market.Params, agentIdx int, scale float64) (*DeviationOutcome, error) {
	if agentIdx < 0 || agentIdx >= len(agents) {
		return nil, fmt.Errorf("audit: agent index %d out of range", agentIdx)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("audit: scale must be positive")
	}
	trueNet := inputs[agentIdx].NetEnergy()
	if market.ClassifyRole(trueNet) != market.RoleBuyer {
		return nil, fmt.Errorf("audit: agent %s is not a buyer in this window", agents[agentIdx].ID)
	}
	trueDemand := -trueNet

	honest, err := market.Clear(agents, inputs, params)
	if err != nil {
		return nil, err
	}

	// The deviant claims a scaled load (net = g - l - b, so inflating the
	// claimed load inflates the claimed demand).
	deviantInputs := append([]market.WindowInput(nil), inputs...)
	deviantInputs[agentIdx].Load += (scale - 1) * trueDemand
	deviant, err := market.Clear(agents, deviantInputs, params)
	if err != nil {
		return nil, err
	}

	id := agents[agentIdx].ID
	return &DeviationOutcome{
		AgentID:       id,
		HonestPayoff:  -buyerTrueCost(honest, id, trueDemand, params),
		DeviantPayoff: -buyerTrueCost(deviant, id, trueDemand, params),
	}, nil
}

// buyerTrueCost prices a buyer's clearing against its true demand: market
// energy up to the true demand displaces retail purchases; energy beyond
// it was paid for at the market price but returns only pbtg from the grid.
func buyerTrueCost(c *market.Clearing, id string, trueDemand float64, params market.Params) float64 {
	var bought, paid float64
	for _, tr := range c.Trades {
		if tr.Buyer == id {
			bought += tr.Energy
			paid += tr.Payment
		}
	}
	cost := paid
	if bought < trueDemand {
		cost += (trueDemand - bought) * params.GridRetailPrice
	} else {
		cost -= (bought - trueDemand) * params.GridSellPrice
	}
	return cost
}

// SellerSupplyInflation replays a window where seller agentIdx claims a
// scaled surplus (the extreme-market attack from Theorem 2's proof:
// inflating supply grows the allocated share but the seller must actually
// deliver, buying the shortfall back from the grid at retail).
//
// Analogously to BuyerDemandInflation, the gain is bounded by
// (pl − pbtg) · (trueSurplus − honestSold) — converting grid feed-in into
// market sales — and turns negative once the inflated allocation exceeds
// the seller's real surplus (each phantom unit is bought at pstg and sold
// at pl < pstg).
func SellerSupplyInflation(agents []market.Agent, inputs []market.WindowInput, params market.Params, agentIdx int, scale float64) (*DeviationOutcome, error) {
	if agentIdx < 0 || agentIdx >= len(agents) {
		return nil, fmt.Errorf("audit: agent index %d out of range", agentIdx)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("audit: scale must be positive")
	}
	trueNet := inputs[agentIdx].NetEnergy()
	if market.ClassifyRole(trueNet) != market.RoleSeller {
		return nil, fmt.Errorf("audit: agent %s is not a seller in this window", agents[agentIdx].ID)
	}

	honest, err := market.Clear(agents, inputs, params)
	if err != nil {
		return nil, err
	}

	deviantInputs := append([]market.WindowInput(nil), inputs...)
	deviantInputs[agentIdx].Generation += (scale - 1) * trueNet
	deviant, err := market.Clear(agents, deviantInputs, params)
	if err != nil {
		return nil, err
	}

	id := agents[agentIdx].ID
	return &DeviationOutcome{
		AgentID:       id,
		HonestPayoff:  sellerTrueRevenue(honest, id, trueNet, params),
		DeviantPayoff: sellerTrueRevenue(deviant, id, trueNet, params),
	}, nil
}

// sellerTrueRevenue prices a seller's clearing against its true surplus:
// market sales beyond the real surplus must be covered by retail purchases
// from the grid; unsold real surplus feeds in at pbtg.
func sellerTrueRevenue(c *market.Clearing, id string, trueSurplus float64, params market.Params) float64 {
	var sold, earned float64
	for _, tr := range c.Trades {
		if tr.Seller == id {
			sold += tr.Energy
			earned += tr.Payment
		}
	}
	revenue := earned
	if sold > trueSurplus {
		revenue -= (sold - trueSurplus) * params.GridRetailPrice
	} else {
		revenue += (trueSurplus - sold) * params.GridSellPrice
	}
	return revenue
}

// BuyerInflationBound computes the coverage-gap bound on a buyer's
// cheating gain: (pstg − p*) times the true demand its honest allocation
// left uncovered.
func BuyerInflationBound(honest *market.Clearing, id string, trueDemand float64, params market.Params) float64 {
	var alloc float64
	for _, tr := range honest.Trades {
		if tr.Buyer == id {
			alloc += tr.Energy
		}
	}
	uncovered := trueDemand - alloc
	if uncovered < 0 {
		uncovered = 0
	}
	return (params.GridRetailPrice - honest.Price) * uncovered
}

// SellerInflationBound computes the feed-in-gap bound on a seller's
// cheating gain: (p* − pbtg) times the true surplus its honest allocation
// left unsold on the market.
func SellerInflationBound(honest *market.Clearing, id string, trueSurplus float64, params market.Params) float64 {
	var sold float64
	for _, tr := range honest.Trades {
		if tr.Seller == id {
			sold += tr.Energy
		}
	}
	unsold := trueSurplus - sold
	if unsold < 0 {
		unsold = 0
	}
	return (honest.Price - params.GridSellPrice) * unsold
}

// IndividualRationality compares every agent's PEM payoff with the
// grid-only baseline and returns the IDs of any agents worse off (empty
// for a correct market — Theorem 2 part 1).
func IndividualRationality(agents []market.Agent, inputs []market.WindowInput, params market.Params) ([]string, error) {
	pem, err := market.Clear(agents, inputs, params)
	if err != nil {
		return nil, err
	}
	base, err := market.BaselineClear(agents, inputs, params)
	if err != nil {
		return nil, err
	}
	var worse []string
	const tol = 1e-9
	for i := range agents {
		p, b := pem.Outcomes[i], base.Outcomes[i]
		switch p.Role {
		case market.RoleSeller:
			if p.Revenue < b.Revenue-tol {
				worse = append(worse, agents[i].ID)
			}
		case market.RoleBuyer:
			if p.Cost > b.Cost+tol {
				worse = append(worse, agents[i].ID)
			}
		}
	}
	return worse, nil
}
