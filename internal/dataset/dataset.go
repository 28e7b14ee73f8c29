// Package dataset synthesizes the workload substrate for the evaluation.
//
// The paper uses one day of real solar generation and household load traces
// for 300 smart homes from the UMass Trace Repository (Smart*), sampled per
// minute from 07:00 to 19:00 (720 trading windows). That dataset is not
// redistributable here, so this package generates a synthetic equivalent
// that exercises the same code paths and produces the same qualitative
// market dynamics (DESIGN.md §10):
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
	"strconv"
	"sync"

	"github.com/pem-go/pem/internal/market"
)

// Config controls trace synthesis. Scenario alone selects the model: its
// preset's constants (scenarios.go) fix the daylight hours, the panel, load,
// battery and cloud bands, and the shares of homes with panels and
// batteries. Every home's preference parameter k_i and battery loss
// coefficient ε_i are drawn from the fixed bands [60, 110] and [0.75, 0.95].
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

	// Scenario selects the weather/equipment preset the trace is drawn
	// from and labels its homes. Empty is the base day with unlabelled
	// homes; an unknown name is refused (*UnknownScenarioError).
	Scenario Scenario

	// idPrefix prefixes home IDs (default "home-"); GenerateFleet gives
	// each block its own so IDs stay unique fleet-wide.
	idPrefix string
	// model is Scenario's preset and sky its clear-sky factor per window
	// (skyCache.curve), both attached by generate and read-only.
	model preset
	sky   []float64
}

func (c Config) withDefaults() Config {
	if c.StartHour == 0 {
		c.StartHour = 7
	}
	if c.idPrefix == "" {
		c.idPrefix = "home-"
	}
	c.model, _ = presetOf(c.Scenario) // Validate refuses an unknown one
	return c
}

// Validate checks what the caller sets: positive sizes, a finite StartHour
// and a known Scenario. A preset's own constants are checked by its tests.
func (c Config) Validate() error {
	if c.Homes <= 0 {
		return errors.New("dataset: Homes must be positive")
	}
	if c.Windows <= 0 {
		return errors.New("dataset: Windows must be positive")
	}
	if !finite(c.StartHour) {
		return fmt.Errorf("dataset: StartHour = %v: want finite", c.StartHour)
	}
	_, err := presetOf(c.Scenario)
	return err
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
	// Scenario is the preset the home was synthesized under
	// (Config.Scenario; empty for the base day's unnamed default).
	Scenario Scenario
}

// NetCapacityKW is the home's public production-minus-baseload rating — the
// only net-balance signal a privacy-preserving partitioner is allowed to
// use (panel nameplate and contracted base load are public; actual
// generation and load are not).
func (h Home) NetCapacityKW() float64 { return h.SolarCapKW - h.BaseLoadKW }

// synthFn writes one home's day of generation, load and battery data, every
// window of each row, from that home's private derived stream into rows the
// caller owns.
type synthFn func(gen, load, batt []float64)

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

// materialize fills home h's day rows if they are still pending.
// Materialization is not synchronized: lazy traces are single-owner by
// design (each coalition materializes its own Select-ed sub-trace).
func (t *Trace) materialize(h int) {
	if t.synth == nil || t.synth[h] == nil {
		return
	}
	t.Gen[h], t.Load[h], t.Battery[h] = t.DayRows(h, make([]float64, 3*t.Windows))
	t.synth[h] = nil
}

// DayRows returns home h's generation, load and battery rows. A
// materialized home returns its stored rows; a pending one has its day
// synthesized into buf, which must hold 3·Windows floats, and stays
// pending, so a caller reading a day once never stores it. Callers must
// not write the rows; those in buf are valid while the caller keeps buf.
func (t *Trace) DayRows(h int, buf []float64) (gen, load, batt []float64) {
	if t.synth == nil || t.synth[h] == nil {
		return t.Gen[h], t.Load[h], t.Battery[h]
	}
	n := t.Windows
	gen, load, batt = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n]
	t.synth[h](gen, load, batt)
	return gen, load, batt
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg.sky = skies.curve(cfg)
	rng := dayRands.Get().(*mrand.Rand)
	rng.Seed(cfg.Seed)

	tr := newTrace(make([]Home, cfg.Homes), cfg.Windows, cfg.StartHour)
	tr.synth = make([]synthFn, cfg.Homes)

	// Statics come first, all from the root stream; each home's day is then
	// drawn from its own derived stream (DeriveSeed). Splitting the
	// streams this way is what makes lazy synthesis possible: any home's
	// day can be materialized on demand without replaying anyone else's
	// draws, and eager and lazy traces are bit-identical by construction.
	for h := range tr.Homes {
		tr.Homes[h] = cfg.model.drawHome(rng, fmt.Sprintf("%s%03d", cfg.idPrefix, h), cfg.Scenario)
	}
	dayRands.Put(rng)
	for h := 0; h < cfg.Homes; h++ {
		home, daySeed := tr.Homes[h], DeriveSeed("home", cfg.Seed, h)
		tr.synth[h] = func(gen, load, batt []float64) { cfg.synthesizeDay(home, daySeed, gen, load, batt) }
	}
	if !cfg.OnDemand {
		tr.Materialize()
	}
	return tr, nil
}

// drawHome draws one home's statics from rng under p, labelled s: base
// load, k and ε, then panels and a battery, each behind its share. A
// trace's homes and a churn joiner draw them alike.
func (p *preset) drawHome(rng *mrand.Rand, id string, s Scenario) Home {
	home := Home{
		ID:         id,
		BaseLoadKW: p.baseLoad.draw(rng),
		// The k band places the unclamped Stackelberg price near the
		// paper's [90, 110].
		K:        band{60, 110}.draw(rng),
		Epsilon:  band{0.75, 0.95}.draw(rng),
		Scenario: s,
	}
	if rng.Float64() < p.solarFraction {
		home.SolarCapKW = p.solarCap.draw(rng)
	}
	if rng.Float64() < p.batteryFraction {
		home.BatteryCapKWh = p.batteryCap.draw(rng)
	}
	return home
}

// DeriveSeed expands a seed into independent streams, one per (domain,
// key): a trace's home days ("home", home index), a fleet's blocks ("fleet",
// block index), an evolution's boundaries, joins and days ("evolve",
// "boundary/3", …) and a grid simulation's epochs ("grid/epoch", epoch).
// FNV-64a over "pem/<domain>/<seed>/<key>" keeps the mapping stable across
// runs and platforms without pulling in crypto for what is test-data
// synthesis; the bytes are built in a stack buffer, not by fmt.
func DeriveSeed[K int | string](domain string, seed int64, key K) int64 {
	var buf [64]byte
	b := append(append(buf[:0], "pem/"...), domain...)
	b = append(strconv.AppendInt(append(b, '/'), seed, 10), '/')
	switch k := any(key).(type) {
	case int:
		b = strconv.AppendInt(b, int64(k), 10)
	case string:
		b = append(b, k...)
	}
	h := fnv.New64a()
	h.Write(b)
	return int64(h.Sum64())
}

// dayRands recycles synthesis's random sources: each block's statics
// stream, each home-day's and each churn boundary's. A daySource draws
// what mrand.NewSource would, so every stream is unchanged, without
// allocating a 607-word state per stream; pooled because lazy traces
// materialize concurrently across coalitions.
var dayRands = sync.Pool{New: func() any { return mrand.New(new(daySource)) }}

// synthesizeDay writes one home's day of per-window generation, load and
// battery data into gen, load and batt (Windows each, every element
// written) from the stream seeded by daySeed. The home's static
// parameters are fixed inputs; only the weather, load jitter and battery
// schedule are drawn. Generate feeds it each home's derived seed; the churn
// layer (churn.go) re-invokes it with a per-(epoch, home) seed so a
// surviving agent gets a fresh day per epoch while its static parameters
// persist. The receiver must have defaults applied and its clear-sky curve
// attached: everything computed here is per home.
func (cfg Config) synthesizeDay(home Home, daySeed int64, gen, load, batt []float64) {
	rng := dayRands.Get().(*mrand.Rand)
	defer dayRands.Put(rng)
	rng.Seed(daySeed)

	// AR(1) cloud attenuation within the preset's band, starting in its
	// upper part. The band is copied out so the window loop reads locals.
	floor, ceil := cfg.model.cloud[0], cfg.model.cloud[1]
	cloudBand := ceil - floor
	cloud := floor + cloudBand*(0.6+0.4*rng.Float64())
	// Morning/evening load peaks with per-home jitter.
	morning := 7.5 + rng.NormFloat64()*0.4
	evening := 18.2 + rng.NormFloat64()*0.5
	morningAmp := home.BaseLoadKW * (1.0 + rng.Float64())
	eveningAmp := home.BaseLoadKW * (1.5 + rng.Float64())
	morningBell, eveningBell := newBell(morning, 0.8), newBell(evening, 1.1)
	level := 0.0 // battery state of charge (kWh)

	for w := 0; w < cfg.Windows; w++ {
		// Solar: the day shape's clear-sky factor scaled by the panels.
		sunKW := home.SolarCapKW * cfg.sky[w]
		cloud = clamp(0.92*cloud+0.08*(floor+cloudBand*rng.Float64()), floor, ceil)
		genKW := sunKW * cloud

		// Load: base + peaks + noise, never negative.
		loadKW := home.BaseLoadKW +
			morningAmp*morningBell.next(cfg.StartHour, w) +
			eveningAmp*eveningBell.next(cfg.StartHour, w) +
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
}

// skyCache holds one call's clear-sky curves, one per day shape (StartHour,
// sunrise, sunset, Windows) — all the factor depends on — so a fleet's
// blocks share one per scenario, not a math.Pow per home per window.
type skyCache map[[4]float64][]float64

// curve returns the defaulted, valid cfg's clear-sky factor per window: the
// bell sin(π·daylight fraction)^1.4 between sunrise and sunset, 0 outside.
func (sc skyCache) curve(cfg Config) []float64 {
	rise, set := cfg.model.sunrise, cfg.model.sunset
	shape := [4]float64{cfg.StartHour, rise, set, float64(cfg.Windows)}
	if sky, ok := sc[shape]; ok {
		return sky
	}
	sky := make([]float64, cfg.Windows)
	for w := range sky {
		hour := cfg.StartHour + float64(w)/60
		if hour > rise && hour < set {
			frac := (hour - rise) / (set - rise)
			sky[w] = math.Pow(math.Sin(math.Pi*frac), 1.4)
		}
	}
	sc[shape] = sky
	return sky
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// draw returns a uniform draw from b.
func (b band) draw(rng *mrand.Rand) float64 {
	return b[0] + rng.Float64()*(b[1]-b[0])
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

// bell steps a load peak exp(−½d²), d = (hour − mean)/sigma, one window
// (1/60 h) at a time without a transcendental: with s = 1/(60·sigma) the
// next value is this one times q = exp(−s·d − s²/2), and q itself scales by
// r = exp(−s²) per window. math.Exp re-anchors v and q at window 0 and every
// bellAnchor windows after, which keeps the drift near 3e-13 relative
// (TestBellRecurrenceBound). A bell that is 0 stays 0 to its next anchor:
// far from the mean q may be +Inf, and 0·Inf is NaN.
type bell struct{ mean, sigma, s, r, v, q float64 }

// bellAnchor is how many windows (an hour's) a bell steps between anchors.
const bellAnchor = 60

func newBell(mean, sigma float64) bell {
	s := 1 / (60 * sigma)
	return bell{mean: mean, sigma: sigma, s: s, r: math.Exp(-s * s)}
}

// next returns the bell at window w of a day starting at startHour; a
// bell's windows must be asked for in order from 0.
func (b *bell) next(startHour float64, w int) float64 {
	if w%bellAnchor == 0 {
		d := (startHour + float64(w)/60 - b.mean) / b.sigma
		b.v, b.q = math.Exp(-0.5*d*d), math.Exp(-b.s*d-0.5*b.s*b.s)
	} else if b.v != 0 {
		b.v *= b.q
		b.q *= b.r
	}
	return b.v
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
