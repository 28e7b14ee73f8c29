package market

import (
	"errors"
	"fmt"
	"sort"
)

// Tiered settlement: the flat grid layer (settlement.go) values every
// coalition's residual directly against the main-grid tariff. Real
// distribution networks are hierarchical — coalitions hang off feeders,
// feeders off districts, districts off regions — and local-energy-market
// designs net surplus against deficit at each aggregation level before
// touching the upstream tariff. This file adds that recursion: a TierNode
// tree whose leaves are coalition residuals, where every intermediate tier
// matches its children's net surplus against their net deficit (releasing
// retail−feed-in per matched kWh, exactly like the flat layer's
// cross-coalition netting opportunity) and passes only the unmatched
// remainder upward. The root is the grid boundary: its children's upward
// residuals are settled by SettleResiduals unchanged, so a 1-tier tree —
// every coalition attached directly to the root — reproduces the flat
// GridSettlement bit for bit.

// TierNode is one node of the settlement hierarchy. Leaves carry coalition
// residuals; intermediate nodes group children (sub-tiers and/or coalitions
// — a mixed district is fine). Names must be unique across the whole tree,
// tiers and coalitions together, because tier names become residual names
// at the parent level.
type TierNode struct {
	// Name identifies the tier ("d03", "r01"); the root's name labels the
	// grid boundary and is conventionally "grid".
	Name string
	// Children are the sub-tiers aggregated under this node.
	Children []*TierNode
	// Residuals are the coalition residuals attached directly to this node.
	Residuals []CoalitionResidual
}

// TierSettlement is one intermediate tier's netting outcome.
type TierSettlement struct {
	// Tier is the tier's unique name.
	Tier string
	// Level is the tier's depth below the root (1 = the root's children).
	Level int
	// GrossImportKWh and GrossExportKWh sum the children's upward residual
	// positions before this tier nets them.
	GrossImportKWh, GrossExportKWh float64
	// MatchedKWh is the energy this tier nets internally: the smaller of
	// its children's total net deficit and total net surplus. A child's
	// simultaneous import and export (morning deficit, midday surplus) is
	// not nettable without storage and never counts.
	MatchedKWh float64
	// NettingGainCents is the welfare this tier releases by matching that
	// energy below the tariff: MatchedKWh · (retail − feed-in).
	NettingGainCents float64
	// UpImportKWh and UpExportKWh are the unmatched remainder this tier
	// passes upward: gross minus matched on both sides.
	UpImportKWh, UpExportKWh float64
}

// TieredSettlement is the outcome of a full hierarchy settlement.
type TieredSettlement struct {
	// Tiers holds one settlement per intermediate tier, sorted by level
	// then name (the root is the grid boundary, not a tier).
	Tiers []TierSettlement
	// Grid settles the root's children — the upward residuals that
	// survived every tier of netting — against the main-grid tariff.
	Grid *GridSettlement
	// MatchedKWh sums the tiers' internally netted energy (the grid
	// settlement's own cross-residual opportunity is reported separately
	// in Grid.MatchedKWh).
	MatchedKWh float64
	// NettingGainCents is the total welfare released across all tiers.
	NettingGainCents float64
}

// SettleTiers settles a hierarchy of coalition residuals: every
// intermediate tier nets its children's surplus against their deficit and
// passes the remainder up; the root's children are settled against the
// grid tariff by SettleResiduals. Conservation holds at every tier (gross
// = matched + upward, per side), and fleet-wide:
//
//	Σ coalition imports = Σ tier MatchedKWh + Grid.Fleet.ImportKWh
//
// and likewise for exports. Names must be unique tree-wide; every node
// needs at least one child or residual; nodes must form a tree.
func SettleTiers(root *TierNode, params Params) (*TieredSettlement, error) {
	if root == nil {
		return nil, errors.New("market: nil tier root")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ts := &TieredSettlement{}
	seenNodes := make(map[*TierNode]bool)
	seenNames := map[string]bool{root.Name: true}
	var residuals []CoalitionResidual
	for _, r := range root.Residuals {
		if seenNames[r.Coalition] {
			return nil, fmt.Errorf("market: duplicate name %q in tier tree", r.Coalition)
		}
		seenNames[r.Coalition] = true
		residuals = append(residuals, r)
	}
	seenNodes[root] = true
	for _, child := range root.Children {
		up, err := ts.settleNode(child, 1, params, seenNodes, seenNames)
		if err != nil {
			return nil, err
		}
		residuals = append(residuals, up)
	}
	sort.Slice(ts.Tiers, func(i, j int) bool {
		if ts.Tiers[i].Level != ts.Tiers[j].Level {
			return ts.Tiers[i].Level < ts.Tiers[j].Level
		}
		return ts.Tiers[i].Tier < ts.Tiers[j].Tier
	})
	grid, err := SettleResiduals(residuals, params)
	if err != nil {
		return nil, err
	}
	ts.Grid = grid
	return ts, nil
}

// settleNode recursively settles one intermediate tier and returns its
// upward residual, named after the tier.
func (ts *TieredSettlement) settleNode(n *TierNode, level int, params Params, seenNodes map[*TierNode]bool, seenNames map[string]bool) (CoalitionResidual, error) {
	var zero CoalitionResidual
	if n == nil {
		return zero, errors.New("market: nil tier node")
	}
	if seenNodes[n] {
		return zero, fmt.Errorf("market: tier %q appears twice in the tree", n.Name)
	}
	seenNodes[n] = true
	if n.Name == "" {
		return zero, errors.New("market: tier with empty name")
	}
	if seenNames[n.Name] {
		return zero, fmt.Errorf("market: duplicate name %q in tier tree", n.Name)
	}
	seenNames[n.Name] = true
	if len(n.Children) == 0 && len(n.Residuals) == 0 {
		return zero, fmt.Errorf("market: tier %q is empty", n.Name)
	}

	// Gather the children's upward positions: coalition residuals verbatim,
	// sub-tiers by recursion.
	var children []CoalitionResidual
	for _, r := range n.Residuals {
		if r.Coalition == "" {
			return zero, fmt.Errorf("market: tier %q holds a residual with empty coalition name", n.Name)
		}
		if seenNames[r.Coalition] {
			return zero, fmt.Errorf("market: duplicate name %q in tier tree", r.Coalition)
		}
		seenNames[r.Coalition] = true
		if r.ImportKWh < 0 || r.ExportKWh < 0 || !finite(r.ImportKWh) || !finite(r.ExportKWh) {
			return zero, fmt.Errorf("market: coalition %q residual not a non-negative quantity: import=%v export=%v",
				r.Coalition, r.ImportKWh, r.ExportKWh)
		}
		children = append(children, r)
	}
	for _, child := range n.Children {
		up, err := ts.settleNode(child, level+1, params, seenNodes, seenNames)
		if err != nil {
			return zero, err
		}
		children = append(children, up)
	}

	// Net the children's *net* positions: a child in deficit contributes
	// imp−exp to the tier's demand, one in surplus exp−imp to its supply.
	// min(D, S) is what the tier can move between children instead of
	// bouncing through the tariff; with one child D or S is zero, so a
	// singleton tier is a pure pass-through wrapper.
	set := TierSettlement{Tier: n.Name, Level: level}
	var deficit, surplus float64
	for _, c := range children {
		set.GrossImportKWh += c.ImportKWh
		set.GrossExportKWh += c.ExportKWh
		if net := c.ImportKWh - c.ExportKWh; net > 0 {
			deficit += net
		} else {
			surplus += -net
		}
	}
	set.MatchedKWh = deficit
	if surplus < deficit {
		set.MatchedKWh = surplus
	}
	set.NettingGainCents = set.MatchedKWh * (params.GridRetailPrice - params.GridSellPrice)
	set.UpImportKWh = set.GrossImportKWh - set.MatchedKWh
	set.UpExportKWh = set.GrossExportKWh - set.MatchedKWh

	ts.Tiers = append(ts.Tiers, set)
	ts.MatchedKWh += set.MatchedKWh
	ts.NettingGainCents += set.NettingGainCents
	return CoalitionResidual{Coalition: n.Name, ImportKWh: set.UpImportKWh, ExportKWh: set.UpExportKWh}, nil
}
