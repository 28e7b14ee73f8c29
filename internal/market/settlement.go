package market

import (
	"errors"
	"fmt"
	"sort"
)

// This file adds the cross-coalition settlement layer used by the sharded
// coalition grid: each coalition trades internally through the private
// protocols, and only its *residual* supply and demand — the energy its
// internal market could not match, which the grid operator observes on the
// feeder meter anyway — is settled against the main grid's buy/sell prices.
// The accounting mirrors the local-energy-market literature (many small
// markets, residuals cleared upstream) and quantifies what a future
// inter-coalition market could recover: residual exports of one coalition
// matched against residual imports of another.

// CoalitionResidual aggregates one coalition's unmatched energy over some
// horizon (typically a trading day): ImportKWh is residual demand drawn
// from the main grid at retail, ExportKWh residual supply fed in at the
// grid's buy price. Both are non-negative; a coalition can have both (its
// general-market windows leave residual demand, its extreme-market windows
// residual supply).
type CoalitionResidual struct {
	// Coalition is the coalition's unique name.
	Coalition string
	// ImportKWh and ExportKWh are the residual demand and supply (kWh).
	ImportKWh, ExportKWh float64
}

// CoalitionSettlement is one coalition's residual position valued at the
// grid tariff.
type CoalitionSettlement struct {
	// Coalition is the coalition's unique name ("fleet" for the total).
	Coalition string
	// ImportKWh and ExportKWh are the settled residual quantities (kWh).
	ImportKWh, ExportKWh float64
	// ImportCost = ImportKWh · GridRetailPrice (cents).
	ImportCost float64
	// ExportRevenue = ExportKWh · GridSellPrice (cents).
	ExportRevenue float64
	// NetCost = ImportCost − ExportRevenue (cents; negative means the
	// coalition earns from the grid on balance).
	NetCost float64
}

// GridSettlement values every coalition's residuals against the grid
// tariff and reports the fleet-wide position, including the cross-coalition
// netting opportunity.
type GridSettlement struct {
	// PerCoalition holds one settlement per input residual, sorted by
	// coalition name.
	PerCoalition []CoalitionSettlement
	// Fleet is the sum over coalitions, settled per coalition (no netting):
	// what the fleet pays today with each coalition alone at its feeder.
	Fleet CoalitionSettlement
	// MatchedKWh is the cross-coalition netting opportunity: energy that
	// residual-exporting coalitions could deliver to residual-importing
	// ones instead of bouncing through the grid — min(total import, total
	// export).
	MatchedKWh float64
	// NettingGainCents is the total welfare released by matching that
	// energy internally: matched · (retail − feed-in), independent of the
	// internal transfer price (buyers save retail−p, sellers gain p−pbtg).
	NettingGainCents float64
}

// settleResiduals clears the coalitions' residual supply and demand against
// the grid tariff, for SettleTiers' root, which has validated params.
// Residual coalition names must be unique, and every residual must pass
// checkResidual.
func settleResiduals(residuals []CoalitionResidual, params Params) (*GridSettlement, error) {
	if len(residuals) == 0 {
		return nil, errors.New("market: no coalition residuals to settle")
	}
	seen := make(map[string]bool, len(residuals))
	s := &GridSettlement{
		PerCoalition: make([]CoalitionSettlement, 0, len(residuals)),
		Fleet:        CoalitionSettlement{Coalition: "fleet"},
	}
	for _, r := range residuals {
		if err := checkResidual(r); err != nil {
			return nil, err
		}
		if seen[r.Coalition] {
			return nil, fmt.Errorf("market: duplicate coalition %q in residuals", r.Coalition)
		}
		seen[r.Coalition] = true
		cs := CoalitionSettlement{
			Coalition:     r.Coalition,
			ImportKWh:     r.ImportKWh,
			ExportKWh:     r.ExportKWh,
			ImportCost:    r.ImportKWh * params.GridRetailPrice,
			ExportRevenue: r.ExportKWh * params.GridSellPrice,
		}
		cs.NetCost = cs.ImportCost - cs.ExportRevenue
		s.PerCoalition = append(s.PerCoalition, cs)

		s.Fleet.ImportKWh += cs.ImportKWh
		s.Fleet.ExportKWh += cs.ExportKWh
		s.Fleet.ImportCost += cs.ImportCost
		s.Fleet.ExportRevenue += cs.ExportRevenue
		s.Fleet.NetCost += cs.NetCost
	}
	sort.Slice(s.PerCoalition, func(i, j int) bool {
		return s.PerCoalition[i].Coalition < s.PerCoalition[j].Coalition
	})
	s.MatchedKWh = s.Fleet.ImportKWh
	if s.Fleet.ExportKWh < s.MatchedKWh {
		s.MatchedKWh = s.Fleet.ExportKWh
	}
	s.NettingGainCents = s.MatchedKWh * (params.GridRetailPrice - params.GridSellPrice)
	return s, nil
}

// checkResidual refuses a residual with an empty coalition name or an import
// or export that is negative or not finite.
func checkResidual(r CoalitionResidual) error {
	if r.Coalition == "" {
		return errors.New("market: residual with empty coalition name")
	}
	if r.ImportKWh < 0 || r.ExportKWh < 0 || !finite(r.ImportKWh) || !finite(r.ExportKWh) {
		return fmt.Errorf("market: coalition %q residual not a non-negative quantity: import=%v export=%v",
			r.Coalition, r.ImportKWh, r.ExportKWh)
	}
	return nil
}

// ResidualFromClearing extracts one window's contribution to a coalition's
// residual position from its plaintext clearing: the grid energy of buyers
// is residual import, that of sellers residual export. (The private
// protocols reveal neither; the experiment harness computes residuals from
// the oracle clearing exactly like the trading-performance figures do.)
func ResidualFromClearing(c *Clearing) (importKWh, exportKWh float64) {
	for _, o := range c.Outcomes {
		switch o.Role {
		case RoleBuyer:
			importKWh += o.GridEnergy
		case RoleSeller:
			exportKWh += o.GridEnergy
		}
	}
	return importKWh, exportKWh
}
