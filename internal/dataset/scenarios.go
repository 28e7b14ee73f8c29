package dataset

// Scenario presets. The paper evaluates a single day of traces; these
// presets vary the weather and fleet composition so the benchmark harness
// and tests can exercise market regimes the base day rarely reaches —
// notably sustained extreme markets (supply ≥ demand), which only occur
// when generation strongly dominates load.

// Scenario identifies a preset configuration.
type Scenario string

// Available scenarios.
const (
	// ScenarioBase matches the paper's setting: modest solar penetration,
	// demand-dominated (general markets with occasional extremes midday).
	ScenarioBase Scenario = "base"
	// ScenarioSunny is a clear high-generation day with oversized panels:
	// extreme markets dominate the midday hours.
	ScenarioSunny Scenario = "sunny"
	// ScenarioOvercast is a heavily clouded day: generation rarely covers
	// load, so nearly every window is a general market or seller-less.
	ScenarioOvercast Scenario = "overcast"
	// ScenarioWinter has a short daylight span and high evening load:
	// long seller-less stretches at both ends of the trading day.
	ScenarioWinter Scenario = "winter"
	// ScenarioStorageHeavy equips every home with a battery, shifting
	// midday surplus into the evening.
	ScenarioStorageHeavy Scenario = "storage-heavy"
)

// Scenarios lists all presets.
func Scenarios() []Scenario {
	return []Scenario{ScenarioBase, ScenarioSunny, ScenarioOvercast, ScenarioWinter, ScenarioStorageHeavy}
}

// ScenarioConfig returns a generator config for the preset.
func ScenarioConfig(s Scenario, homes, windows int, seed int64) (Config, error) {
	cfg := Config{Homes: homes, Windows: windows, Seed: seed, Scenario: s}
	switch s {
	case ScenarioBase, "":
		// Defaults.
	case ScenarioSunny:
		cfg.SolarCapMinKW = 6
		cfg.SolarCapMaxKW = 14
		cfg.BaseLoadMinKW = 0.2
		cfg.BaseLoadMaxKW = 0.8
		cfg.SolarFraction = 0.999 // effectively everyone has panels
		cfg.CloudFloor = 0.7      // clear sky: attenuation stays high
	case ScenarioOvercast:
		cfg.SolarCapMinKW = 0.8
		cfg.SolarCapMaxKW = 2.5
		cfg.BaseLoadMinKW = 0.7
		cfg.BaseLoadMaxKW = 2.0
		cfg.SolarFraction = 0.7
		cfg.CloudFloor = 0.15 // heavy deck: attenuation pinned low
		cfg.CloudCeil = 0.45
	case ScenarioWinter:
		cfg.SunriseHour = 8.2
		cfg.SunsetHour = 16.8
		cfg.SolarCapMinKW = 2
		cfg.SolarCapMaxKW = 6
		cfg.BaseLoadMinKW = 0.6
		cfg.BaseLoadMaxKW = 1.8
		cfg.CloudCeil = 0.75 // low sun never reaches clear-sky yield
	case ScenarioStorageHeavy:
		cfg.BatteryFraction = 0.95
		cfg.BatteryCapMinKWh = 6
		cfg.BatteryCapMaxKWh = 16
	default:
		return Config{}, &UnknownScenarioError{Scenario: s}
	}
	return cfg, nil
}

// UnknownScenarioError is returned for unrecognized preset names.
type UnknownScenarioError struct {
	// Scenario is the unrecognized preset name.
	Scenario Scenario
}

// Error implements the error interface.
func (e *UnknownScenarioError) Error() string {
	return "dataset: unknown scenario " + string(e.Scenario)
}
