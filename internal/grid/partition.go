// Package grid shards a large agent fleet into coalitions and runs them as
// concurrent protocol engines over shared infrastructure — one transport
// bus, one bounded crypto pool — with each coalition's residual supply and
// demand settled against the main grid.
//
// The paper evaluates one coalition; its protocols cost O(n) sequential
// ring rounds per window, so one roster caps fleet size at what a single
// Paillier ring can sustain. Local-energy-market practice partitions large
// fleets into many small markets and clears the residuals upstream; this
// package is that partition. Each coalition is an independent core.Engine
// with a coalition-scoped transport namespace (see transport.ScopedWindowTag),
// so coalitions never cross-talk even though they share the bus, and total
// crypto parallelism stays bounded by the one shared worker pool no matter
// how many coalitions are in flight.
package grid

import (
	"fmt"
	mrand "math/rand"
	"sort"

	"github.com/pem-go/pem/internal/dataset"
)

// Strategy names a partitioning strategy.
type Strategy string

// The built-in strategies. All three are deterministic given their inputs
// and use only public agent metadata (IDs, panel nameplate, contracted base
// load) — a partitioner that read private traces would leak them.
const (
	// StrategyFixed chunks the fleet in roster order: homes [0, H) form
	// coalition 0, [H, 2H) coalition 1, … For a GenerateFleet trace this
	// recovers the scenario-pure blocks.
	StrategyFixed Strategy = "fixed"
	// StrategyRandom shuffles the roster with a seeded permutation before
	// chunking, mixing scenarios uniformly.
	StrategyRandom Strategy = "random"
	// StrategyBalanced greedily mixes producers and consumers: homes are
	// ordered by public net capacity (panel nameplate minus base load) and
	// each is assigned to the open coalition with the lowest running net
	// capacity, so every coalition gets a comparable producer/consumer
	// blend and can actually trade internally.
	StrategyBalanced Strategy = "balanced"
)

// Partition splits the fleet into the given number of coalitions, returning
// each coalition's member indices into homes. Coalition sizes differ by at
// most one; every coalition has at least two members (an engine needs a
// counterparty), which bounds coalitions at len(homes)/2. seed feeds the
// random strategy only.
func Partition(strategy Strategy, homes []dataset.Home, coalitions int, seed int64) ([][]int, error) {
	n := len(homes)
	if coalitions <= 0 {
		return nil, fmt.Errorf("grid: coalitions must be positive, got %d", coalitions)
	}
	if n < 2*coalitions {
		return nil, fmt.Errorf("grid: %d homes cannot fill %d coalitions of ≥2", n, coalitions)
	}

	sizes := make([]int, coalitions)
	for i := range sizes {
		sizes[i] = n / coalitions
		if i < n%coalitions {
			sizes[i]++
		}
	}

	switch strategy {
	case StrategyFixed, "":
		parts := make([][]int, coalitions)
		next := 0
		for i, size := range sizes {
			parts[i] = make([]int, size)
			for j := range parts[i] {
				parts[i][j] = next
				next++
			}
		}
		return parts, nil

	case StrategyRandom:
		perm := mrand.New(mrand.NewSource(seed)).Perm(n)
		parts := make([][]int, coalitions)
		next := 0
		for i, size := range sizes {
			parts[i] = append([]int(nil), perm[next:next+size]...)
			sort.Ints(parts[i]) // canonical member order within a coalition
			next += size
		}
		return parts, nil

	case StrategyBalanced:
		return partitionBalanced(homes, sizes), nil

	default:
		return nil, fmt.Errorf("grid: unknown partition strategy %q", strategy)
	}
}

// partitionBalanced assigns homes in decreasing public-net-capacity order,
// each to the unfilled coalition with the lowest running capacity sum — the
// classic greedy multiway-balance heuristic. Producers (positive net
// capacity) spread out first, then consumers backfill the emptiest
// coalitions, so no coalition ends up all-sellers or all-buyers if the
// fleet has both. Ties break by ID and coalition index for determinism.
func partitionBalanced(homes []dataset.Home, sizes []int) [][]int {
	order := make([]int, len(homes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ha, hb := homes[order[a]], homes[order[b]]
		if ha.NetCapacityKW() != hb.NetCapacityKW() {
			return ha.NetCapacityKW() > hb.NetCapacityKW()
		}
		return ha.ID < hb.ID
	})

	parts := make([][]int, len(sizes))
	loads := make([]float64, len(sizes))
	for _, h := range order {
		best := -1
		for c := range parts {
			if len(parts[c]) >= sizes[c] {
				continue
			}
			if best == -1 || loads[c] < loads[best] {
				best = c
			}
		}
		parts[best] = append(parts[best], h)
		loads[best] += homes[h].NetCapacityKW()
	}
	for _, p := range parts {
		sort.Ints(p) // canonical member order within a coalition
	}
	return parts
}
