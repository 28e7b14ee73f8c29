package market

import (
	"fmt"
	"sort"
)

// Trade is one pairwise transaction: Seller routes Energy kWh to Buyer who
// pays Payment (cents).
type Trade struct {
	// Seller and Buyer are the counterparties' agent IDs.
	Seller, Buyer string
	// Energy is the delivered quantity (kWh).
	Energy float64
	// Payment is what the buyer pays the seller (cents).
	Payment float64
}

// AgentOutcome summarizes one agent's window result.
type AgentOutcome struct {
	// ID is the agent.
	ID string
	// Role is the agent's classification in this window.
	Role Role
	// Net is sn_i^t.
	Net float64
	// MarketEnergy is the energy traded on the PEM (sold if seller,
	// bought if buyer).
	MarketEnergy float64
	// GridEnergy is the residual routed to/from the main grid (sold if
	// seller, bought if buyer).
	GridEnergy float64
	// Revenue (sellers) and Cost (buyers) in cents, combining market and
	// grid legs.
	Revenue, Cost float64
}

// Clearing is the full plaintext result of one trading window.
type Clearing struct {
	// Kind is the market regime the window cleared under.
	Kind Kind
	// PHat is the unclamped Eq. 13 price (0 if extreme market or no
	// sellers).
	PHat float64
	// Price is the effective trading price p*.
	Price float64
	// Supply and Demand are E_s and E_b.
	Supply, Demand float64
	// Trades are the pairwise allocations.
	Trades []Trade
	// Outcomes indexed by agent position in the input slice.
	Outcomes []AgentOutcome
	// SellerIDs and BuyerIDs hold the coalition rosters (sorted).
	SellerIDs, BuyerIDs []string

	// Reusable clearing scratch (ClearInto): role records and the ID index,
	// retained across windows so a settlement loop allocates only on fleet
	// growth.
	sellers []sellerRec
	buyers  []buyerRec
	params  []SellerParams
	idxByID map[string]int
}

// sellerRec and buyerRec are the per-window role records Clear builds while
// classifying the fleet.
type sellerRec struct {
	idx int
	net float64
}

type buyerRec struct {
	idx    int
	demand float64
}

// Reset empties c for reuse, retaining every slice's backing array (and the
// index map) so ClearInto over a window sequence reuses one Clearing's
// storage instead of reallocating it each window.
func (c *Clearing) Reset() {
	c.Kind = 0
	c.PHat, c.Price, c.Supply, c.Demand = 0, 0, 0, 0
	c.Trades = c.Trades[:0]
	c.Outcomes = c.Outcomes[:0]
	c.SellerIDs = c.SellerIDs[:0]
	c.BuyerIDs = c.BuyerIDs[:0]
	c.sellers = c.sellers[:0]
	c.buyers = c.buyers[:0]
	c.params = c.params[:0]
}

// GridInteraction is the total energy exchanged with the main grid in this
// clearing: residual buyer demand plus residual seller surplus.
func (c *Clearing) GridInteraction() float64 {
	var total float64
	for _, o := range c.Outcomes {
		total += o.GridEnergy
	}
	return total
}

// TotalBuyerCost sums the buyers' costs (Γ^t including grid residue).
func (c *Clearing) TotalBuyerCost() float64 {
	var total float64
	for _, o := range c.Outcomes {
		if o.Role == RoleBuyer {
			total += o.Cost
		}
	}
	return total
}

// Clear computes the plaintext market outcome for one window, the reference
// against which the cryptographic engine is validated, refusing what it
// refuses: a share above fixed.MaxShare (ErrShareBound).
func Clear(agents []Agent, inputs []WindowInput, params Params) (*Clearing, error) {
	c := new(Clearing)
	if err := ClearInto(c, agents, inputs, params); err != nil {
		return nil, err
	}
	return c, nil
}

// ClearInto is Clear writing into a caller-owned Clearing: c is Reset and
// refilled in place, reusing its trade/outcome/roster storage. Settlement
// loops that clear many windows (the grid's oracle accounting) hold one
// Clearing across the sequence instead of allocating a full result per
// window. The outcome is bit-identical to Clear's.
func ClearInto(c *Clearing, agents []Agent, inputs []WindowInput, params Params) error {
	if len(agents) != len(inputs) {
		return fmt.Errorf("market: %d agents but %d inputs", len(agents), len(inputs))
	}
	if err := params.Validate(); err != nil {
		return err
	}
	for i, a := range agents {
		if err := a.Validate(); err != nil {
			return err
		}
		if _, err := inputs[i].Share(a.ID); err != nil {
			return err
		}
	}

	c.Reset()
	if cap(c.Outcomes) < len(agents) {
		c.Outcomes = make([]AgentOutcome, len(agents))
	} else {
		c.Outcomes = c.Outcomes[:len(agents)]
	}
	sellers, buyers := c.sellers, c.buyers
	for i, in := range inputs {
		net := in.NetEnergy()
		role := ClassifyRole(net)
		c.Outcomes[i] = AgentOutcome{ID: agents[i].ID, Role: role, Net: net}
		switch role {
		case RoleSeller:
			sellers = append(sellers, sellerRec{idx: i, net: net})
			c.Supply += net
			c.SellerIDs = append(c.SellerIDs, agents[i].ID)
		case RoleBuyer:
			buyers = append(buyers, buyerRec{idx: i, demand: -net})
			c.Demand += -net
			c.BuyerIDs = append(c.BuyerIDs, agents[i].ID)
		}
	}
	c.sellers, c.buyers = sellers, buyers
	sort.Strings(c.SellerIDs)
	sort.Strings(c.BuyerIDs)

	// Degenerate windows: no sellers ⇒ everyone buys from the grid at
	// retail (Protocol 1 initialization rule); no buyers ⇒ sellers feed
	// the grid at pbtg.
	if len(sellers) == 0 || len(buyers) == 0 {
		c.Kind = GeneralMarket
		c.Price = params.GridRetailPrice
		if len(buyers) == 0 {
			c.Kind = ExtremeMarket
			c.Price = params.PriceFloor
		}
		for i := range c.Outcomes {
			o := &c.Outcomes[i]
			switch o.Role {
			case RoleBuyer:
				o.GridEnergy = -o.Net
				o.Cost = params.GridRetailPrice * o.GridEnergy
			case RoleSeller:
				o.GridEnergy = o.Net
				o.Revenue = params.GridSellPrice * o.GridEnergy
			}
		}
		return nil
	}

	if c.Supply < c.Demand {
		c.Kind = GeneralMarket
		sellerParams := c.params[:0]
		for _, s := range sellers {
			a := agents[s.idx]
			in := inputs[s.idx]
			sellerParams = append(sellerParams, SellerParams{K: a.K, Epsilon: a.Epsilon, Gen: in.Generation, Battery: in.Battery})
		}
		c.params = sellerParams
		pHat, pStar, err := OptimalPrice(sellerParams, params)
		if err != nil {
			return err
		}
		c.PHat = pHat
		c.Price = pStar

		// General market: the whole supply is sold; buyer j receives the
		// share |sn_j| / E_b of each seller's surplus (Section III-D).
		for _, s := range sellers {
			for _, b := range buyers {
				e := s.net * (b.demand / c.Demand)
				if e <= 0 {
					continue
				}
				c.Trades = append(c.Trades, Trade{
					Seller:  agents[s.idx].ID,
					Buyer:   agents[b.idx].ID,
					Energy:  e,
					Payment: e * c.Price,
				})
			}
		}
	} else {
		c.Kind = ExtremeMarket
		c.Price = params.PriceFloor

		// Extreme market: the whole demand is covered; seller i contributes
		// the share sn_i / E_s of each buyer's demand (Section III-D).
		for _, s := range sellers {
			for _, b := range buyers {
				e := b.demand * (s.net / c.Supply)
				if e <= 0 {
					continue
				}
				c.Trades = append(c.Trades, Trade{
					Seller:  agents[s.idx].ID,
					Buyer:   agents[b.idx].ID,
					Energy:  e,
					Payment: e * c.Price,
				})
			}
		}
	}

	// Aggregate per-agent outcomes. The ID index is part of the reusable
	// scratch: one map serves every window of a settlement loop.
	idxByID := c.idxByID
	if idxByID == nil {
		idxByID = make(map[string]int, len(agents))
		c.idxByID = idxByID
	} else {
		clear(idxByID)
	}
	for i, a := range agents {
		idxByID[a.ID] = i
	}
	for _, tr := range c.Trades {
		si := idxByID[tr.Seller]
		bi := idxByID[tr.Buyer]
		c.Outcomes[si].MarketEnergy += tr.Energy
		c.Outcomes[si].Revenue += tr.Payment
		c.Outcomes[bi].MarketEnergy += tr.Energy
		c.Outcomes[bi].Cost += tr.Payment
	}
	for i := range c.Outcomes {
		o := &c.Outcomes[i]
		switch o.Role {
		case RoleSeller:
			// Unsold surplus goes to the grid at pbtg.
			residual := o.Net - o.MarketEnergy
			if residual > offMarketEpsilon {
				o.GridEnergy = residual
				o.Revenue += params.GridSellPrice * residual
			}
		case RoleBuyer:
			// Uncovered demand comes from the grid at retail.
			residual := -o.Net - o.MarketEnergy
			if residual > offMarketEpsilon {
				o.GridEnergy = residual
				o.Cost += params.GridRetailPrice * residual
			}
		}
	}
	return nil
}

// BaselineClear computes the paper's benchmark: no PEM, every agent trades
// only with the main grid (sellers feed in at pbtg, buyers draw at retail).
func BaselineClear(agents []Agent, inputs []WindowInput, params Params) (*Clearing, error) {
	c := new(Clearing)
	if err := BaselineClearInto(c, agents, inputs, params); err != nil {
		return nil, err
	}
	return c, nil
}

// BaselineClearInto is BaselineClear writing into a caller-owned Clearing,
// mirroring ClearInto's reuse contract.
func BaselineClearInto(c *Clearing, agents []Agent, inputs []WindowInput, params Params) error {
	if len(agents) != len(inputs) {
		return fmt.Errorf("market: %d agents but %d inputs", len(agents), len(inputs))
	}
	if err := params.Validate(); err != nil {
		return err
	}
	c.Reset()
	c.Kind = GeneralMarket
	c.Price = params.GridRetailPrice
	if cap(c.Outcomes) < len(agents) {
		c.Outcomes = make([]AgentOutcome, len(agents))
	} else {
		c.Outcomes = c.Outcomes[:len(agents)]
	}
	for i, in := range inputs {
		net := in.NetEnergy()
		role := ClassifyRole(net)
		o := AgentOutcome{ID: agents[i].ID, Role: role, Net: net}
		switch role {
		case RoleSeller:
			c.Supply += net
			o.GridEnergy = net
			o.Revenue = params.GridSellPrice * net
			c.SellerIDs = append(c.SellerIDs, agents[i].ID)
		case RoleBuyer:
			c.Demand += -net
			o.GridEnergy = -net
			o.Cost = params.GridRetailPrice * -net
			c.BuyerIDs = append(c.BuyerIDs, agents[i].ID)
		}
		c.Outcomes[i] = o
	}
	sort.Strings(c.SellerIDs)
	sort.Strings(c.BuyerIDs)
	return nil
}
