package grid

import (
	"fmt"

	"github.com/pem-go/pem/internal/market"
)

// Tier-tree construction: Config.Tiers describes the settlement hierarchy as
// a fanout schedule over partition indices — Tiers[0] consecutive coalitions
// per district, Tiers[1] consecutive districts per region, and so on, with
// the last level's nodes attached to the grid boundary. Consecutive grouping
// matches how the partitioners lay out fleets (GenerateFleet blocks are
// contiguous, so a district is a physical neighbourhood of feeders), and it
// keeps the tree a pure function of (partition, fanout): the same grid run
// settles identically whether streamed or batched, at any concurrency.
//
// Coalitions that produced no residual (failed before settlement) simply
// don't appear; a group left with no members at all is skipped rather than
// materialised empty, so churn-shrunken grids still form legal trees.

// tierName labels a tier group: districts "d00…", regions "r00…", deeper
// levels "t<level>-00…". The namespace is disjoint from coalition names
// ("c00", "e01-c00"), which SettleTiers' tree-wide uniqueness check relies
// on.
func tierName(level, group int) string {
	switch level {
	case 1:
		return fmt.Sprintf("d%02d", group)
	case 2:
		return fmt.Sprintf("r%02d", group)
	default:
		return fmt.Sprintf("t%d-%02d", level, group)
	}
}

// tierTree builds the market.TierNode hierarchy for the settleable
// coalitions of runs under the fanout schedule, a coalition's partition
// index deciding its district. With an empty schedule every residual
// attaches directly to the root — the flat grid, which SettleTiers settles
// exactly as SettleResiduals would. Nil when no coalition is settleable.
func tierTree(fanout []int, runs []CoalitionRun) *market.TierNode {
	root := &market.TierNode{Name: "grid"}

	// Level 1: group coalition indices into districts. Runs are in
	// partition order, so groups materialise in ascending order too.
	nodes := make(map[int]*market.TierNode)
	var order []int
	for i := range runs {
		cr := &runs[i]
		if !cr.settleable() {
			continue
		}
		if len(fanout) == 0 {
			root.Residuals = append(root.Residuals, cr.Residual)
			continue
		}
		g := i / fanout[0]
		n, ok := nodes[g]
		if !ok {
			n = &market.TierNode{Name: tierName(1, g)}
			nodes[g] = n
			order = append(order, g)
		}
		n.Residuals = append(n.Residuals, cr.Residual)
	}
	if len(root.Residuals) == 0 && len(order) == 0 {
		return nil
	}

	// Upper levels: regroup the previous level's groups by the next fanout.
	for level := 2; level <= len(fanout); level++ {
		f := fanout[level-1]
		parents := make(map[int]*market.TierNode)
		var porder []int
		for _, g := range order {
			p := g / f
			pn, ok := parents[p]
			if !ok {
				pn = &market.TierNode{Name: tierName(level, p)}
				parents[p] = pn
				porder = append(porder, p)
			}
			pn.Children = append(pn.Children, nodes[g])
		}
		nodes, order = parents, porder
	}

	for _, g := range order {
		root.Children = append(root.Children, nodes[g])
	}
	return root
}
