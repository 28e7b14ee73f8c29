package dataset

import (
	"fmt"
	"math"
	mrand "math/rand"
	"testing"
)

// Bounds of the bell recurrence against math.Exp. bellRelBound is a bell's
// worst relative error: ≈ k²·ε from k ≤ 59 products since the last anchor,
// plus the reference's own rounding of hour and d² (TestBellRecurrenceBound
// reads ≈ 3e-13). loadRelBound and battAbsBound carry it into a home-day's
// Load and Battery (kWh per window).
const (
	bellRelBound = 1e-12
	loadRelBound = 1e-12
	battAbsBound = 1e-12
)

// gaussExp is the load bell as synthesis computed it before the recurrence:
// one math.Exp per window.
func gaussExp(x, mean, sigma float64) float64 {
	d := (x - mean) / sigma
	return math.Exp(-0.5 * d * d)
}

// expSynthesizeDay is synthesizeDay as it was before the recurrence, its
// bells drawn by gaussExp and its stream by math/rand's own source: the
// reference TestSynthesizeDayMatchesExpBells holds synthesis to.
func expSynthesizeDay(cfg Config, home Home, daySeed int64) (gen, load, batt []float64) {
	rng := mrand.New(mrand.NewSource(daySeed))
	gen, load, batt = make([]float64, cfg.Windows), make([]float64, cfg.Windows), make([]float64, cfg.Windows)
	floor, ceil := cfg.model.cloud[0], cfg.model.cloud[1]
	cloudBand := ceil - floor
	cloud := floor + cloudBand*(0.6+0.4*rng.Float64())
	morning := 7.5 + rng.NormFloat64()*0.4
	evening := 18.2 + rng.NormFloat64()*0.5
	morningAmp := home.BaseLoadKW * (1.0 + rng.Float64())
	eveningAmp := home.BaseLoadKW * (1.5 + rng.Float64())
	level := 0.0
	for w := 0; w < cfg.Windows; w++ {
		hour := cfg.StartHour + float64(w)/60
		sunKW := home.SolarCapKW * cfg.sky[w]
		cloud = clamp(0.92*cloud+0.08*(floor+cloudBand*rng.Float64()), floor, ceil)
		genKW := sunKW * cloud
		loadKW := home.BaseLoadKW +
			morningAmp*gaussExp(hour, morning, 0.8) +
			eveningAmp*gaussExp(hour, evening, 1.1) +
			rng.NormFloat64()*0.05*home.BaseLoadKW
		if loadKW < 0.05 {
			loadKW = 0.05
		}
		gen[w], load[w] = genKW/60, loadKW/60
		var b float64
		if home.BatteryCapKWh > 0 {
			surplus := gen[w] - load[w]
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

// TestSynthesizeDayMatchesExpBells holds every home-day of the golden
// digests' default trace, scenario presets and churn epoch to the math.Exp
// reference: Gen bit for bit (no draw moved), Load within loadRelBound, Battery
// within battAbsBound.
func TestSynthesizeDayMatchesExpBells(t *testing.T) {
	const seed = 20200425
	var worstLoad, worstBatt float64
	check := func(name string, tr *Trace, cfgOf func(h int) (Config, int64)) {
		t.Helper()
		tr.Materialize()
		for h, home := range tr.Homes {
			cfg, daySeed := cfgOf(h)
			cfg = cfg.withDefaults()
			cfg.sky = skyCache{}.curve(cfg)
			gen, load, batt := expSynthesizeDay(cfg, home, daySeed)
			for w := range gen {
				if g := tr.Gen[h][w]; math.Float64bits(g) != math.Float64bits(gen[w]) {
					t.Fatalf("%s: home %d window %d: Gen %v, reference %v", name, h, w, g, gen[w])
				}
				le, be := math.Abs(tr.Load[h][w]-load[w])/load[w], math.Abs(tr.Battery[h][w]-batt[w])
				if !(le <= loadRelBound) || !(be <= battAbsBound) {
					t.Fatalf("%s: home %d window %d: Load %v, Battery %v; reference %v, %v (errors %.3g relative, %.3g kWh)",
						name, h, w, tr.Load[h][w], tr.Battery[h][w], load[w], batt[w], le, be)
				}
				worstLoad, worstBatt = math.Max(worstLoad, le), math.Max(worstBatt, be)
			}
		}
	}
	generated := func(cfg Config) (*Trace, func(int) (Config, int64)) {
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr, func(h int) (Config, int64) { return cfg, DeriveSeed("home", cfg.Seed, h) }
	}

	tr, cfgOf := generated(Config{Homes: 32, Windows: 720, Seed: seed})
	check("default 32x720", tr, cfgOf)
	for _, s := range Scenarios() {
		tr, cfgOf := generated(Config{Homes: 8, Windows: 720, Seed: seed, Scenario: s})
		check("scenario "+string(s), tr, cfgOf)
	}

	fc := FleetConfig{Coalitions: 6, HomesPerCoalition: 8, Windows: 720, Seed: seed}
	evo, err := Evolve(fc, ChurnConfig{Epochs: 2, JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	e1 := evo.Epochs[1].Trace
	check("evolve epoch 1", e1, func(h int) (Config, int64) {
		home := e1.Homes[h]
		cfg := Config{Windows: e1.Windows, StartHour: e1.StartHour, Scenario: home.Scenario}
		return cfg, DeriveSeed("evolve", seed, fmt.Sprintf("day/%d/%s", 1, home.ID))
	})
	t.Logf("worst Load relative error %.3g, worst Battery error %.3g kWh", worstLoad, worstBatt)
}

// bellWorst returns a bell's worst error against gaussExp over a day of n
// windows from start, relative to the reference after forgiving slack of
// absolute error: a window with |got − want| ≤ rel·want + slack reads ≤ rel.
func bellWorst(start, mean, sigma float64, n int, slack float64) (rel float64) {
	b := newBell(mean, sigma)
	for w := range n {
		got, want := b.next(start, w), gaussExp(start+float64(w)/60, mean, sigma)
		if e := math.Abs(got-want) - slack; e > 0 {
			rel = math.Max(rel, e/want) // +Inf where want is 0
		}
	}
	return rel
}

// TestBellRecurrenceBound holds both bells, at their means and ±4 jitter σ,
// under bellRelBound over a 720- and a 1 440-window day from 07:00, then
// runs far-off and long days through Generate: every load finite and at
// least the 0.05 kW floor, whatever the bells' anchors read.
func TestBellRecurrenceBound(t *testing.T) {
	for _, n := range []int{720, 1440} {
		var worst float64
		for _, b := range []struct{ mean, jitter, sigma float64 }{{7.5, 0.4, 0.8}, {18.2, 0.5, 1.1}} {
			for _, k := range []float64{-4, 0, 4} {
				rel := bellWorst(7, b.mean+k*b.jitter, b.sigma, n, 0)
				if !(rel <= bellRelBound) {
					t.Errorf("%d windows, bell at %v σ %v: relative error %.3g, bound %g", n, b.mean+k*b.jitter, b.sigma, rel, bellRelBound)
				}
				worst = math.Max(worst, rel)
			}
		}
		t.Logf("%d windows: worst relative error %.3g", n, worst)
	}

	for _, cfg := range []Config{
		{Homes: 1, Windows: 720, Seed: 1, StartHour: -1e5},
		{Homes: 1, Windows: 720, Seed: 1, StartHour: 1e5},
		{Homes: 1, Windows: 100_000, Seed: 1},
	} {
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for w, l := range tr.Load[0] {
			if !finite(l) || !(l >= 0.05/60) || !finite(tr.Battery[0][w]) {
				t.Fatalf("StartHour %v, %d windows: window %d load %v, battery %v", cfg.StartHour, cfg.Windows, w, l, tr.Battery[0][w])
			}
		}
	}
}

// FuzzBell steps a bell of any mean, σ in [0.5, 2] and up to 2 000 windows
// from any start: every value finite and in [0, 1] (give or take
// bellRelBound at the peak, where the products round). With start and mean in
// [−24, 24] h it also stays within bellRelBound of gaussExp, give or take
// 1e-290 absolute: a bell anchored at 0 stays 0 while its reference may
// climb to ≈ 1e-291 (|d| from 38.6 to 36.6 in 59 windows at σ = 0.5), and
// products in the subnormal range keep only absolute precision.
func FuzzBell(f *testing.F) {
	f.Add(7.0, 7.5, 0.8, uint16(720))
	f.Add(7.0, 18.2, 1.1, uint16(1440))
	f.Add(-1e5, 7.5, 0.8, uint16(120))
	f.Add(1e5, 18.2, 1.1, uint16(120))
	f.Add(-24.0, 24.0, 0.5, uint16(2000))
	f.Fuzz(func(t *testing.T, start, mean, sigma float64, windows uint16) {
		if !finite(start) || !finite(mean) || !finite(sigma) {
			t.Skip()
		}
		if sigma < 0.5 || sigma > 2 {
			sigma = 0.5 + math.Mod(math.Abs(sigma), 1.5)
		}
		n := int(windows % 2001)
		b := newBell(mean, sigma)
		for w := range n {
			if v := b.next(start, w); !(v >= 0 && v <= 1+bellRelBound) {
				t.Fatalf("start %v mean %v σ %v: window %d reads %v", start, mean, sigma, w, v)
			}
		}
		if math.Abs(start) > 24 || math.Abs(mean) > 24 {
			return
		}
		if rel := bellWorst(start, mean, sigma, n, 1e-290); !(rel <= bellRelBound) {
			t.Fatalf("start %v mean %v σ %v, %d windows: relative error %.3g", start, mean, sigma, n, rel)
		}
	})
}

// BenchmarkSynthesizeDay synthesises one default home's 720-window day into
// a caller buffer, as a folded coalition-day does for each member.
func BenchmarkSynthesizeDay(b *testing.B) {
	tr, err := Generate(Config{Homes: 1, Windows: 720, Seed: 20200425, OnDemand: true})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, 3*tr.Windows)
	b.ReportAllocs()
	for b.Loop() {
		tr.DayRows(0, buf)
	}
}
