package dataset

import (
	"errors"
	"fmt"
)

// Fleet synthesis: the coalition grid trades a heterogeneous fleet, not one
// uniform neighborhood. Each coalition-sized block of homes is generated
// under a scenario preset (see scenarios.go) — a weather/equipment profile
// — from a seed derived from the single fleet seed, so one int64 reproduces
// the whole fleet bit-for-bit while coalitions still differ qualitatively:
// a sunny solar suburb exports at noon while a winter block imports all
// day, which is exactly what gives cross-coalition settlement something to
// net.

// DefaultFleetScenarios is the rotation GenerateFleet assigns when the
// caller does not pick presets per block: one exporter-leaning preset, two
// importer-leaning ones and a storage-heavy mix, so a default fleet has
// residuals on both sides to settle.
func DefaultFleetScenarios() []Scenario {
	return []Scenario{ScenarioSunny, ScenarioOvercast, ScenarioWinter, ScenarioStorageHeavy}
}

// FleetConfig controls heterogeneous fleet synthesis.
type FleetConfig struct {
	// Coalitions is the number of scenario blocks.
	Coalitions int
	// HomesPerCoalition is the block size.
	HomesPerCoalition int
	// Windows is the number of trading windows (shared by every block).
	Windows int
	// Seed drives all randomness; per-block seeds are derived from it.
	Seed int64
	// StartHour is the local hour of window 0 (default 7). Short
	// benchmark fleets set it near noon so the few windows they run have
	// sun to trade.
	StartHour float64
	// Scenarios assigns a preset per block, cycling when shorter than
	// Coalitions. Defaults to DefaultFleetScenarios().
	Scenarios []Scenario
	// OnDemand defers every home's day synthesis (see Config.OnDemand):
	// the fleet trace carries only statics until homes are materialized,
	// which is how the scale benchmarks hold 100k+-home fleets.
	OnDemand bool
}

// GenerateFleet synthesizes a fleet of Coalitions × HomesPerCoalition homes
// as one combined trace. Block b occupies home indices [b·H, (b+1)·H) with
// IDs "c<b>-home-<i>", so the grid's fixed partitioner recovers the
// scenario-pure blocks while the random and balanced partitioners remix
// them. Fully deterministic given Seed.
func GenerateFleet(cfg FleetConfig) (*Trace, error) {
	if cfg.Coalitions <= 0 {
		return nil, errors.New("dataset: Coalitions must be positive")
	}
	if cfg.HomesPerCoalition <= 0 {
		return nil, errors.New("dataset: HomesPerCoalition must be positive")
	}
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = DefaultFleetScenarios()
	}

	var fleet *Trace
	skies := skyCache{} // one curve per scenario day shape, not per block
	for b := 0; b < cfg.Coalitions; b++ {
		blockCfg, err := ScenarioConfig(scenarios[b%len(scenarios)], cfg.HomesPerCoalition, cfg.Windows, DeriveSeed("fleet", cfg.Seed, b))
		if err != nil {
			return nil, err
		}
		blockCfg.IDPrefix = fmt.Sprintf("c%02d-home-", b)
		blockCfg.StartHour = cfg.StartHour
		blockCfg.OnDemand = cfg.OnDemand
		block, err := generate(blockCfg, skies)
		if err != nil {
			return nil, fmt.Errorf("dataset: block %d (%s): %w", b, blockCfg.Scenario, err)
		}
		if fleet == nil {
			fleet = block
			continue
		}
		if block.StartHour != fleet.StartHour || block.Windows != fleet.Windows {
			return nil, fmt.Errorf("dataset: block %d day shape diverges from block 0", b)
		}
		fleet.Homes = append(fleet.Homes, block.Homes...)
		fleet.Gen = append(fleet.Gen, block.Gen...)
		fleet.Load = append(fleet.Load, block.Load...)
		fleet.Battery = append(fleet.Battery, block.Battery...)
		fleet.synth = append(fleet.synth, block.synth...)
	}
	return fleet, nil
}
