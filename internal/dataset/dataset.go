// Package dataset synthesizes the workload substrate for the evaluation.
//
// The paper uses one day of real solar generation and household load traces
// for 300 smart homes from the UMass Trace Repository (Smart*), sampled per
// minute from 07:00 to 19:00 (720 trading windows). That dataset is not
// redistributable here, so this package generates a synthetic equivalent
// that exercises the same code paths and produces the same qualitative
// market dynamics (DESIGN.md §4):
//
//   - solar output follows a clear-sky bell curve between sunrise and
//     sunset, scaled by a per-home panel capacity and modulated by an AR(1)
//     cloud process, so generation is ≈0 at the edges of the trading day
//     (price pinned at the retail rate, Fig 6a) and peaks midday;
//   - household load is a base level plus morning and evening Gaussian
//     peaks plus noise, so most homes are buyers early and late, and the
//     seller coalition grows toward midday (coalition churn, Fig 4);
//   - an optional battery policy charges a fraction of midday surplus and
//     discharges against evening deficit, bounded by per-home capacity.
//
// Generation is fully deterministic given the seed.
package dataset

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	mrand "math/rand"
	"slices"

	"github.com/pem-go/pem/internal/market"
)

// Config controls trace synthesis.
type Config struct {
	// Homes is the number of smart homes (the paper sweeps 100–300).
	Homes int
	// Windows is the number of one-minute trading windows (720 = 07:00
	// to 19:00).
	Windows int
	// Seed drives all randomness.
	Seed int64

	// StartHour is the local hour of window 0 (default 7).
	StartHour float64
	// SunriseHour and SunsetHour bound solar production (defaults
	// 6.5/19.5).
	SunriseHour, SunsetHour float64

	// SolarCapMinKW and SolarCapMaxKW bound per-home panel capacity
	// (defaults 2 and 9 kW).
	SolarCapMinKW, SolarCapMaxKW float64

	// CloudFloor and CloudCeil bound the AR(1) cloud-attenuation process
	// (defaults 0.25 and 1.0). A scenario preset narrows the band: an
	// overcast day lives near the floor, a clear one near the ceiling.
	CloudFloor, CloudCeil float64

	// SolarFraction is the share of homes with panels (default 0.85).
	// Panel-less homes remain buyers all day, which keeps the buyer
	// coalition populated through the midday surplus — the Fig. 4 shape —
	// and gives the Fig. 6(c) savings a demand side to act on. Set to a
	// tiny positive value (not 0, which means "default") to disable.
	SolarFraction float64

	// BaseLoadMinKW and BaseLoadMaxKW bound the per-home base load
	// (defaults 0.3 and 1.2 kW).
	BaseLoadMinKW, BaseLoadMaxKW float64

	// KMin and KMax bound the preference parameter k_i (defaults 60 and
	// 110, which places the unclamped Stackelberg price near the paper's
	// [90,110] band; the Fig 6b experiment overrides k per tracked
	// seller).
	KMin, KMax float64

	// EpsilonMin and EpsilonMax bound the battery loss coefficient
	// (defaults 0.75 and 0.95).
	EpsilonMin, EpsilonMax float64

	// BatteryFraction of homes have a battery (default 0.3); capacities
	// are drawn in [BatteryCapMinKWh, BatteryCapMaxKWh] (defaults 2 and
	// 10 kWh).
	BatteryFraction float64
	// BatteryCapMinKWh and BatteryCapMaxKWh bound per-home battery
	// capacity (defaults 2 and 10 kWh).
	BatteryCapMinKWh, BatteryCapMaxKWh float64

	// IDPrefix prefixes home IDs (default "home-"); fleet synthesis gives
	// each coalition its own prefix so IDs stay unique fleet-wide.
	IDPrefix string

	// OnDemand defers day synthesis: Generate returns a lazy trace whose
	// Gen/Load/Battery rows stay nil until a home is materialized (by
	// WindowInputs, Materialize, or a Select-ed sub-trace's first use).
	// Static parameters are always synthesized eagerly — partitioners need
	// them — and each home's day comes from its own derived stream, so a
	// lazy trace is bit-identical to its eager counterpart no matter which
	// homes materialize in which order. This is what lets a streaming grid
	// hold a million-home day as O(homes) statics plus O(in-flight
	// coalitions) day data.
	OnDemand bool

	// Scenario labels the homes generated under this config (informational;
	// see the scenario presets in fleet.go).
	Scenario Scenario

	// sky is the clear-sky factor per window (skyCache.curve), read-only.
	sky []float64
}

func (c Config) withDefaults() Config {
	if c.StartHour == 0 {
		c.StartHour = 7
	}
	if c.SunriseHour == 0 {
		c.SunriseHour = 6.5
	}
	if c.SunsetHour == 0 {
		c.SunsetHour = 19.5
	}
	if c.SolarCapMinKW == 0 {
		c.SolarCapMinKW = 2
	}
	if c.SolarCapMaxKW == 0 {
		c.SolarCapMaxKW = 9
	}
	if c.SolarFraction == 0 {
		c.SolarFraction = 0.85
	}
	if c.BaseLoadMinKW == 0 {
		c.BaseLoadMinKW = 0.3
	}
	if c.BaseLoadMaxKW == 0 {
		c.BaseLoadMaxKW = 1.2
	}
	if c.KMin == 0 {
		c.KMin = 60
	}
	if c.KMax == 0 {
		c.KMax = 110
	}
	if c.EpsilonMin == 0 {
		c.EpsilonMin = 0.75
	}
	if c.EpsilonMax == 0 {
		c.EpsilonMax = 0.95
	}
	if c.BatteryFraction == 0 {
		c.BatteryFraction = 0.3
	}
	if c.CloudFloor == 0 {
		c.CloudFloor = 0.25
	}
	if c.CloudCeil == 0 {
		c.CloudCeil = 1
	}
	if c.BatteryCapMinKWh == 0 {
		c.BatteryCapMinKWh = 2
	}
	if c.BatteryCapMaxKWh == 0 {
		c.BatteryCapMaxKWh = 10
	}
	if c.IDPrefix == "" {
		c.IDPrefix = "home-"
	}
	return c
}

// Validate checks the config as Generate uses it, defaults applied: finite
// numbers, a sunrise before sunset, no inverted band (uniform would draw
// from its mirror image).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Homes <= 0 {
		return errors.New("dataset: Homes must be positive")
	}
	if c.Windows <= 0 {
		return errors.New("dataset: Windows must be positive")
	}
	for _, f := range []struct {
		name   string
		lo, hi float64 // a band's bounds, or one value twice
	}{
		{"StartHour", c.StartHour, c.StartHour},
		{"SunriseHour/SunsetHour", c.SunriseHour, c.SunsetHour},
		{"SolarCapMinKW/SolarCapMaxKW", c.SolarCapMinKW, c.SolarCapMaxKW},
		{"CloudFloor/CloudCeil", c.CloudFloor, c.CloudCeil},
		{"SolarFraction", c.SolarFraction, c.SolarFraction},
		{"BaseLoadMinKW/BaseLoadMaxKW", c.BaseLoadMinKW, c.BaseLoadMaxKW},
		{"KMin/KMax", c.KMin, c.KMax},
		{"EpsilonMin/EpsilonMax", c.EpsilonMin, c.EpsilonMax},
		{"BatteryFraction", c.BatteryFraction, c.BatteryFraction},
		{"BatteryCapMinKWh/BatteryCapMaxKWh", c.BatteryCapMinKWh, c.BatteryCapMaxKWh},
	} {
		if !finite(f.lo) || !finite(f.hi) || f.lo > f.hi {
			return fmt.Errorf("dataset: %s = %v, %v: want finite, in order", f.name, f.lo, f.hi)
		}
	}
	if c.SunriseHour == c.SunsetHour { // later is rejected above
		return fmt.Errorf("dataset: SunriseHour/SunsetHour = %v, %v: a sunless day", c.SunriseHour, c.SunsetHour)
	}
	if c.CloudFloor < 0 || c.CloudCeil > 1 {
		return fmt.Errorf("dataset: CloudFloor/CloudCeil band [%v, %v] outside [0, 1]", c.CloudFloor, c.CloudCeil)
	}
	return nil
}

// Home describes one smart home's static parameters. The first five fields
// are public metadata (a grid partitioner may read them; see internal/grid);
// the per-window trace data stays private to the protocols.
type Home struct {
	// ID is the home's unique agent identifier.
	ID string
	// SolarCapKW is the panel nameplate capacity (0 = no panels).
	SolarCapKW float64
	// BaseLoadKW is the contracted base load.
	BaseLoadKW float64
	// K is the utility preference parameter k_i (private).
	K float64
	// Epsilon is the battery loss coefficient ε_i (private).
	Epsilon float64
	// BatteryCapKWh is the battery capacity (0 = no battery).
	BatteryCapKWh float64
	// Scenario is the weather/equipment preset the home was synthesized
	// under (empty for plain Generate calls).
	Scenario Scenario
}

// NetCapacityKW is the home's public production-minus-baseload rating — the
// only net-balance signal a privacy-preserving partitioner is allowed to
// use (panel nameplate and contracted base load are public; actual
// generation and load are not).
func (h Home) NetCapacityKW() float64 { return h.SolarCapKW - h.BaseLoadKW }

// synthFn materializes one home's day of generation, load and battery data
// from that home's private derived stream.
type synthFn func() (gen, load, batt []float64)

// Trace is a full day of per-window data for a fleet of homes.
type Trace struct {
	// Homes is the fleet roster with static parameters.
	Homes []Home
	// Windows is the number of trading windows in the day.
	Windows int
	// StartHour is the local time of window 0.
	StartHour float64
	// Gen[h][w], Load[h][w] and Battery[h][w] are home h's generation,
	// load and battery schedule in window w (kWh per window). On a lazy
	// trace (Config.OnDemand) a home's rows are nil until materialized.
	Gen, Load, Battery [][]float64

	// synth holds the pending per-home day synthesizers of a lazy trace
	// (nil entries once materialized; nil slice for eager traces). Entries
	// are self-contained closures over the home's statics and derived
	// stream, so Select can hand them to sub-traces that materialize
	// independently of the parent.
	synth []synthFn
}

// Lazy reports whether the trace still has unmaterialized homes.
func (t *Trace) Lazy() bool {
	for _, s := range t.synth {
		if s != nil {
			return true
		}
	}
	return false
}

// materialize fills home h's day rows if they are still pending.
// Materialization is not synchronized: lazy traces are single-owner by
// design (each coalition materializes its own Select-ed sub-trace).
func (t *Trace) materialize(h int) {
	if t.synth == nil || t.synth[h] == nil {
		return
	}
	t.Gen[h], t.Load[h], t.Battery[h] = t.synth[h]()
	t.synth[h] = nil
}

// Materialize synthesizes every still-pending home's day data, turning a
// lazy trace into its eager, bit-identical counterpart.
func (t *Trace) Materialize() {
	for h := range t.synth {
		t.materialize(h)
	}
	t.synth = nil
}

// newTrace returns a trace over homes with no day data yet.
func newTrace(homes []Home, windows int, startHour float64) *Trace {
	return &Trace{
		Homes:     homes,
		Windows:   windows,
		StartHour: startHour,
		Gen:       make([][]float64, len(homes)),
		Load:      make([][]float64, len(homes)),
		Battery:   make([][]float64, len(homes)),
	}
}

// Generate synthesizes a trace.
func Generate(cfg Config) (*Trace, error) { return generate(cfg, skyCache{}) }

// generate is Generate drawing its clear-sky curve from the caller's cache.
func generate(cfg Config, skies skyCache) (*Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.sky = skies.curve(cfg)
	rng := mrand.New(mrand.NewSource(cfg.Seed))

	tr := newTrace(make([]Home, cfg.Homes), cfg.Windows, cfg.StartHour)
	tr.synth = make([]synthFn, cfg.Homes)

	// Statics come first, all from the root stream; each home's day is then
	// drawn from its own derived stream (deriveHomeSeed). Splitting the
	// streams this way is what makes lazy synthesis possible: any home's
	// day can be materialized on demand without replaying anyone else's
	// draws, and eager and lazy traces are bit-identical by construction.
	for h := 0; h < cfg.Homes; h++ {
		home := Home{
			ID:         fmt.Sprintf("%s%03d", cfg.IDPrefix, h),
			BaseLoadKW: uniform(rng, cfg.BaseLoadMinKW, cfg.BaseLoadMaxKW),
			K:          uniform(rng, cfg.KMin, cfg.KMax),
			Epsilon:    uniform(rng, cfg.EpsilonMin, cfg.EpsilonMax),
			Scenario:   cfg.Scenario,
		}
		if rng.Float64() < cfg.SolarFraction {
			home.SolarCapKW = uniform(rng, cfg.SolarCapMinKW, cfg.SolarCapMaxKW)
		}
		if rng.Float64() < cfg.BatteryFraction {
			home.BatteryCapKWh = uniform(rng, cfg.BatteryCapMinKWh, cfg.BatteryCapMaxKWh)
		}
		tr.Homes[h] = home
	}
	for h := 0; h < cfg.Homes; h++ {
		home, daySeed := tr.Homes[h], deriveHomeSeed(cfg.Seed, h)
		tr.synth[h] = func() (gen, load, batt []float64) {
			return cfg.synthesizeDay(home, mrand.New(mrand.NewSource(daySeed)))
		}
	}
	if !cfg.OnDemand {
		tr.Materialize()
	}
	return tr, nil
}

// deriveHomeSeed expands the trace seed into one independent day stream per
// home, FNV-hashed like fleet.go's deriveSeed so the mapping is stable
// across runs and platforms.
func deriveHomeSeed(seed int64, home int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "pem/home/%d/%d", seed, home)
	return int64(h.Sum64())
}

// synthesizeDay generates one home's day of per-window generation, load and
// battery data from the given randomness stream. The home's static
// parameters are fixed inputs; only the weather, load jitter and battery
// schedule are drawn. Generate feeds it each home's share of the trace
// stream; the churn layer (churn.go) re-invokes it with a per-(epoch, home)
// stream so a surviving agent gets a fresh day per epoch while its static
// parameters persist. The receiver must have defaults applied and its
// clear-sky curve attached: everything computed here is per home.
func (cfg Config) synthesizeDay(home Home, rng *mrand.Rand) (gen, load, batt []float64) {
	gen = make([]float64, cfg.Windows)
	load = make([]float64, cfg.Windows)
	batt = make([]float64, cfg.Windows)

	// AR(1) cloud attenuation in [CloudFloor, CloudCeil], starting in
	// the upper part of the band.
	cloudBand := cfg.CloudCeil - cfg.CloudFloor
	cloud := cfg.CloudFloor + cloudBand*(0.6+0.4*rng.Float64())
	// Morning/evening load peaks with per-home jitter.
	morning := 7.5 + rng.NormFloat64()*0.4
	evening := 18.2 + rng.NormFloat64()*0.5
	morningAmp := home.BaseLoadKW * (1.0 + rng.Float64())
	eveningAmp := home.BaseLoadKW * (1.5 + rng.Float64())
	level := 0.0 // battery state of charge (kWh)

	for w := 0; w < cfg.Windows; w++ {
		hour := cfg.StartHour + float64(w)/60

		// Solar: the day shape's clear-sky factor scaled by the panels.
		sunKW := home.SolarCapKW * cfg.sky[w]
		cloud = clamp(0.92*cloud+0.08*(cfg.CloudFloor+cloudBand*rng.Float64()), cfg.CloudFloor, cfg.CloudCeil)
		genKW := sunKW * cloud

		// Load: base + peaks + noise, never negative.
		loadKW := home.BaseLoadKW +
			morningAmp*gauss(hour, morning, 0.8) +
			eveningAmp*gauss(hour, evening, 1.1) +
			rng.NormFloat64()*0.05*home.BaseLoadKW
		if loadKW < 0.05 {
			loadKW = 0.05
		}

		genKWh := genKW / 60
		loadKWh := loadKW / 60
		gen[w] = genKWh
		load[w] = loadKWh

		// Battery policy: charge 30% of surplus, discharge 30% of
		// deficit, within capacity.
		var b float64
		if home.BatteryCapKWh > 0 {
			surplus := genKWh - loadKWh
			if surplus > 0 {
				b = math.Min(0.3*surplus, home.BatteryCapKWh-level)
			} else {
				b = -math.Min(0.3*-surplus, level)
			}
			level += b
		}
		batt[w] = b
	}
	return gen, load, batt
}

// skyCache holds one call's clear-sky curves, one per day shape (StartHour,
// SunriseHour, SunsetHour, Windows) — all the factor depends on — so a
// fleet's blocks share one per scenario, not a math.Pow per home per window.
type skyCache map[[4]float64][]float64

// curve returns the defaulted, valid cfg's clear-sky factor per window: the
// bell sin(π·daylight fraction)^1.4 between sunrise and sunset, 0 outside.
func (sc skyCache) curve(cfg Config) []float64 {
	shape := [4]float64{cfg.StartHour, cfg.SunriseHour, cfg.SunsetHour, float64(cfg.Windows)}
	if sky, ok := sc[shape]; ok {
		return sky
	}
	sky := make([]float64, cfg.Windows)
	for w := range sky {
		hour := cfg.StartHour + float64(w)/60
		if hour > cfg.SunriseHour && hour < cfg.SunsetHour {
			frac := (hour - cfg.SunriseHour) / (cfg.SunsetHour - cfg.SunriseHour)
			sky[w] = math.Pow(math.Sin(math.Pi*frac), 1.4)
		}
	}
	sc[shape] = sky
	return sky
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func uniform(rng *mrand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func gauss(x, mean, sigma float64) float64 {
	d := (x - mean) / sigma
	return math.Exp(-0.5 * d * d)
}

// Agents converts the homes into market agents.
func (t *Trace) Agents() []market.Agent {
	out := make([]market.Agent, len(t.Homes))
	for i, h := range t.Homes {
		out[i] = market.Agent{
			ID:              h.ID,
			K:               h.K,
			Epsilon:         h.Epsilon,
			BatteryCapacity: h.BatteryCapKWh,
		}
	}
	return out
}

// WindowInputs returns every home's private data for window w. On a lazy
// trace it materializes every home's full day first (a day is one stream
// per home, not per window) — callers wanting bounded memory should Select
// the homes they need and call WindowInputs on the sub-trace.
func (t *Trace) WindowInputs(w int) ([]market.WindowInput, error) {
	return t.AppendWindowInputs(nil, w)
}

// AppendWindowInputs is WindowInputs appending to dst: a loop over a day's
// windows passes its last result back as dst[:0] and allocates once.
func (t *Trace) AppendWindowInputs(dst []market.WindowInput, w int) ([]market.WindowInput, error) {
	if w < 0 || w >= t.Windows {
		return nil, fmt.Errorf("dataset: window %d out of range [0,%d)", w, t.Windows)
	}
	t.Materialize()
	dst = slices.Grow(dst, len(t.Homes))
	for h := range t.Homes {
		dst = append(dst, market.WindowInput{
			Generation: t.Gen[h][w],
			Load:       t.Load[h][w],
			Battery:    t.Battery[h][w],
		})
	}
	return dst, nil
}

// Select returns a trace restricted to the listed home indices, in the
// given order (sharing the underlying per-home slices; do not mutate). It
// is how a coalition grid carves one fleet trace into per-coalition traces.
// On a lazy trace the sub-trace inherits the pending synthesizers and
// materializes into itself: the parent stays lazy, so a streaming grid's
// day data lives only as long as the coalition sub-traces that use it.
func (t *Trace) Select(indices []int) (*Trace, error) {
	if len(indices) == 0 {
		return nil, errors.New("dataset: empty home selection")
	}
	sub := newTrace(make([]Home, len(indices)), t.Windows, t.StartHour)
	if t.synth != nil {
		sub.synth = make([]synthFn, len(indices))
	}
	seen := make(map[int]bool, len(indices))
	for i, h := range indices {
		if h < 0 || h >= len(t.Homes) {
			return nil, fmt.Errorf("dataset: home index %d out of range [0,%d)", h, len(t.Homes))
		}
		if seen[h] {
			return nil, fmt.Errorf("dataset: home index %d selected twice", h)
		}
		seen[h] = true
		sub.Homes[i] = t.Homes[h]
		sub.Gen[i] = t.Gen[h]
		sub.Load[i] = t.Load[h]
		sub.Battery[i] = t.Battery[h]
		if t.synth != nil {
			sub.synth[i] = t.synth[h]
		}
	}
	return sub, nil
}
