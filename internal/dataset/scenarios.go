package dataset

import "fmt"

// Scenario presets. The paper evaluates a single day of traces; these
// presets vary the weather and fleet composition so the benchmark harness
// and tests can exercise market regimes the base day rarely reaches —
// notably sustained extreme markets (supply ≥ demand), which only occur
// when generation strongly dominates load.

// Scenario names a preset: Config.Scenario selects the model a trace is
// drawn from, and each home carries the name it was drawn under.
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

// preset is one scenario's model: the day's sunrise and sunset hours, the
// [lo, hi] bands panel capacity (kW), base load (kW), battery capacity (kWh)
// and the AR(1) cloud attenuation are drawn from, and the shares of homes
// with panels and with a battery.
type preset struct {
	sunrise, sunset                       float64
	solarCap, baseLoad, batteryCap, cloud band
	solarFraction, batteryFraction        float64
}

// band is a closed range [lo, hi].
type band [2]float64

// basePreset is the paper-like day every preset departs from. Panel-less
// homes (solarFraction) stay buyers all day, which keeps the buyer coalition
// populated through the midday surplus — the Fig. 4 shape — and gives the
// Fig. 6(c) savings a demand side to act on.
var basePreset = preset{
	sunrise: 6.5, sunset: 19.5,
	solarCap: band{2, 9}, baseLoad: band{0.3, 1.2}, batteryCap: band{2, 10},
	cloud:         band{0.25, 1},
	solarFraction: 0.85, batteryFraction: 0.3,
}

// presetOf returns s's model: the base day with s's departures from it. The
// empty name is the base day.
func presetOf(s Scenario) (preset, error) {
	p := basePreset
	switch s {
	case ScenarioBase, "":
	case ScenarioSunny:
		p.solarCap, p.baseLoad = band{6, 14}, band{0.2, 0.8}
		p.solarFraction = 0.999 // effectively everyone has panels
		p.cloud[0] = 0.7        // clear sky: attenuation stays high
	case ScenarioOvercast:
		p.solarCap, p.baseLoad = band{0.8, 2.5}, band{0.7, 2.0}
		p.solarFraction = 0.7
		p.cloud = band{0.15, 0.45} // heavy deck: attenuation pinned low
	case ScenarioWinter:
		p.sunrise, p.sunset = 8.2, 16.8
		p.solarCap, p.baseLoad = band{2, 6}, band{0.6, 1.8}
		p.cloud[1] = 0.75 // low sun never reaches clear-sky yield
	case ScenarioStorageHeavy:
		p.batteryFraction = 0.95
		p.batteryCap = band{6, 16}
	default:
		return preset{}, &UnknownScenarioError{Scenario: s}
	}
	return p, nil
}

// UnknownScenarioError is returned for unrecognized preset names.
type UnknownScenarioError struct {
	// Scenario is the unrecognized preset name.
	Scenario Scenario
}

// Error implements the error interface.
func (e *UnknownScenarioError) Error() string {
	return fmt.Sprintf("dataset: unknown Scenario %q", e.Scenario)
}
