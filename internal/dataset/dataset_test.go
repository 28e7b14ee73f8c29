package dataset

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/pem-go/pem/internal/market"
)

func smallTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Generate(Config{Homes: 20, Windows: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateShapes(t *testing.T) {
	tr := smallTrace(t)
	if len(tr.Homes) != 20 {
		t.Fatalf("homes = %d", len(tr.Homes))
	}
	if tr.Windows != 120 {
		t.Fatalf("windows = %d", tr.Windows)
	}
	for h := range tr.Homes {
		if len(tr.Gen[h]) != 120 || len(tr.Load[h]) != 120 || len(tr.Battery[h]) != 120 {
			t.Fatalf("home %d has ragged series", h)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Homes: 5, Windows: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Homes: 5, Windows: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 5; h++ {
		for w := 0; w < 60; w++ {
			if a.Gen[h][w] != b.Gen[h][w] || a.Load[h][w] != b.Load[h][w] {
				t.Fatalf("seed 42 not deterministic at (%d,%d)", h, w)
			}
		}
	}
	c, err := Generate(Config{Homes: 5, Windows: 60, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for w := 0; w < 60 && same; w++ {
		if a.Gen[0][w] != c.Gen[0][w] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical generation")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Homes: 0, Windows: 10}); err == nil {
		t.Error("zero homes accepted")
	}
	if _, err := Generate(Config{Homes: 10, Windows: 0}); err == nil {
		t.Error("zero windows accepted")
	}

	// A non-finite StartHour is refused by name (an unknown Scenario is
	// TestScenarios', a preset's constants TestPresetSanity's).
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Generate(Config{Homes: 4, Windows: 10, StartHour: h}); err == nil || !strings.Contains(err.Error(), "StartHour") {
			t.Errorf("StartHour %v: err = %v, want one naming the field", h, err)
		}
	}

	// Every preset generates, bare and as a fleet block.
	for _, s := range Scenarios() {
		if _, err := Generate(Config{Homes: 4, Windows: 10, Seed: 1, Scenario: s}); err != nil {
			t.Errorf("preset %s: %v", s, err)
		}
	}
	if _, err := GenerateFleet(FleetConfig{Coalitions: len(DefaultFleetScenarios()), HomesPerCoalition: 2, Windows: 10}); err != nil {
		t.Errorf("default fleet scenarios: %v", err)
	}
}

// TestPresetSanity holds every preset's constants to a usable model: a
// sunrise before sunset, finite and ordered bands, a cloud band within
// [0, 1] and both shares within (0, 1].
func TestPresetSanity(t *testing.T) {
	for _, s := range Scenarios() {
		p, err := presetOf(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !(p.sunrise < p.sunset) {
			t.Errorf("%s: sunrise %v not before sunset %v", s, p.sunrise, p.sunset)
		}
		for name, b := range map[string]band{"solarCap": p.solarCap, "baseLoad": p.baseLoad, "batteryCap": p.batteryCap, "cloud": p.cloud} {
			if !finite(b[0]) || !finite(b[1]) || b[0] > b[1] {
				t.Errorf("%s: %s band %v not finite and ordered", s, name, b)
			}
		}
		if p.cloud[0] < 0 || p.cloud[1] > 1 {
			t.Errorf("%s: cloud band %v outside [0, 1]", s, p.cloud)
		}
		for name, f := range map[string]float64{"solarFraction": p.solarFraction, "batteryFraction": p.batteryFraction} {
			if !(f > 0 && f <= 1) {
				t.Errorf("%s: %s %v outside (0, 1]", s, name, f)
			}
		}
	}
}

func TestPhysicalPlausibility(t *testing.T) {
	tr, err := Generate(Config{Homes: 30, Windows: 720, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for h, home := range tr.Homes {
		level := 0.0
		for w := 0; w < tr.Windows; w++ {
			if tr.Gen[h][w] < 0 {
				t.Fatalf("negative generation at (%d,%d)", h, w)
			}
			if tr.Load[h][w] <= 0 {
				t.Fatalf("non-positive load at (%d,%d)", h, w)
			}
			// Per-minute energy bounded by capacity.
			if tr.Gen[h][w] > home.SolarCapKW/60+1e-9 {
				t.Fatalf("generation exceeds panel capacity at (%d,%d)", h, w)
			}
			level += tr.Battery[h][w]
			if level < -1e-9 || level > home.BatteryCapKWh+1e-9 {
				t.Fatalf("battery level %v outside [0,%v] at (%d,%d)", level, home.BatteryCapKWh, h, w)
			}
			if home.BatteryCapKWh == 0 && tr.Battery[h][w] != 0 {
				t.Fatalf("batteryless home charges at (%d,%d)", h, w)
			}
		}
	}
}

func TestDayEdgeGenerationNearZero(t *testing.T) {
	// The first and last windows must have far less generation than
	// midday — this is what pins the Fig 6a price to retail at the edges.
	tr, err := Generate(Config{Homes: 50, Windows: 720, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sumAt := func(w int) float64 {
		var s float64
		for h := range tr.Homes {
			s += tr.Gen[h][w]
		}
		return s
	}
	edge := sumAt(0) + sumAt(tr.Windows-1)
	mid := sumAt(tr.Windows / 2)
	if edge > mid/4 {
		t.Errorf("edge generation %v not well below midday %v", edge, mid)
	}
}

func TestCoalitionChurn(t *testing.T) {
	// Fig 4 shape: more buyers than sellers early, sellers grow by midday.
	tr, err := Generate(Config{Homes: 100, Windows: 720, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	count := func(w int) (sellers, buyers int) {
		ins, err := tr.WindowInputs(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			switch market.ClassifyRole(in.NetEnergy()) {
			case market.RoleSeller:
				sellers++
			case market.RoleBuyer:
				buyers++
			}
		}
		return
	}
	s0, b0 := count(0)
	sMid, _ := count(tr.Windows / 2)
	if s0 >= b0 {
		t.Errorf("window 0: %d sellers vs %d buyers; expected buyer-dominated", s0, b0)
	}
	if sMid <= s0 {
		t.Errorf("midday sellers %d not above morning %d", sMid, s0)
	}
}

func TestAgentsConversion(t *testing.T) {
	tr := smallTrace(t)
	agents := tr.Agents()
	if len(agents) != len(tr.Homes) {
		t.Fatal("agent count mismatch")
	}
	for i, a := range agents {
		if err := a.Validate(); err != nil {
			t.Errorf("agent %d invalid: %v", i, err)
		}
		if a.ID != tr.Homes[i].ID {
			t.Errorf("agent %d ID mismatch", i)
		}
	}
}

func TestWindowInputsBounds(t *testing.T) {
	tr := smallTrace(t)
	if _, err := tr.WindowInputs(-1); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := tr.WindowInputs(tr.Windows); err == nil {
		t.Error("out-of-range window accepted")
	}
	ins, err := tr.WindowInputs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != len(tr.Homes) {
		t.Error("inputs length mismatch")
	}
}

// scenarioTrace synthesizes a trace for a named preset through the public
// field.
func scenarioTrace(s Scenario, homes, windows int, seed int64) (*Trace, error) {
	return Generate(Config{Homes: homes, Windows: windows, Seed: seed, Scenario: s})
}

func TestScenarios(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			tr, err := scenarioTrace(s, 40, 240, 17)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Homes) != 40 || tr.Windows != 240 {
				t.Fatal("shape wrong")
			}
		})
	}
	if _, err := scenarioTrace("volcanic", 10, 10, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestScenarioMarketRegimes(t *testing.T) {
	// The presets must actually produce distinct market regimes: sunny
	// days push supply past demand (extreme markets); overcast days stay
	// demand-dominated.
	count := func(s Scenario) (extremeish, generalish int) {
		tr, err := scenarioTrace(s, 60, 720, 23)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < tr.Windows; w++ {
			var supply, demand float64
			ins, err := tr.WindowInputs(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range ins {
				net := in.NetEnergy()
				if net > 0 {
					supply += net
				} else {
					demand += -net
				}
			}
			if supply == 0 || demand == 0 {
				continue
			}
			if supply >= demand {
				extremeish++
			} else {
				generalish++
			}
		}
		return
	}
	sunnyExtreme, sunnyGeneral := count(ScenarioSunny)
	overcastExtreme, overcastGeneral := count(ScenarioOvercast)
	if sunnyExtreme < 50 || sunnyExtreme < sunnyGeneral {
		t.Errorf("sunny scenario not supply-dominated: %d extreme vs %d general", sunnyExtreme, sunnyGeneral)
	}
	if overcastExtreme > overcastGeneral {
		t.Errorf("overcast scenario extreme-dominated: %d vs %d", overcastExtreme, overcastGeneral)
	}
}

func TestSolarFraction(t *testing.T) {
	tr, err := Generate(Config{Homes: 200, Windows: 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	withPanels := 0
	for _, h := range tr.Homes {
		if h.SolarCapKW > 0 {
			withPanels++
		}
	}
	// Default fraction 0.85 ± sampling noise.
	if withPanels < 150 || withPanels > 195 {
		t.Errorf("%d/200 homes have panels, want ≈170", withPanels)
	}
	// Panel-less homes never generate.
	for h, home := range tr.Homes {
		if home.SolarCapKW != 0 {
			continue
		}
		for w := 0; w < tr.Windows; w++ {
			if tr.Gen[h][w] != 0 {
				t.Fatalf("panel-less home %d generated at window %d", h, w)
			}
		}
	}
}

// FuzzGenerate draws a trace of 1–8 homes and 1–64 windows from any seed,
// StartHour, scenario name and OnDemand. Generate either refuses it with an
// error naming the field — a non-finite StartHour, an unknown Scenario — or
// returns finite rows with generation ≥ 0, load at least the 0.05 kW floor,
// a battery within capacity (to 1e-9 kWh of rounding, as
// TestPhysicalPlausibility), and an eager trace bit-identical to the lazy
// one.
func FuzzGenerate(f *testing.F) {
	for i, s := range append(Scenarios(), "", "volcanic") {
		f.Add(uint8(i), uint8(60), int64(i), 7.0, string(s), i%2 == 0)
	}
	f.Add(uint8(7), uint8(63), int64(-9), math.NaN(), "sunny", false)
	f.Add(uint8(3), uint8(40), int64(20200425), -1e5, "winter", true)
	f.Add(uint8(0), uint8(0), int64(0), math.Inf(1), "volcanic", true)
	f.Fuzz(func(t *testing.T, homes, windows uint8, seed int64, start float64, scenario string, onDemand bool) {
		cfg := Config{Homes: 1 + int(homes%8), Windows: 1 + int(windows%64), Seed: seed, StartHour: start, Scenario: Scenario(scenario), OnDemand: onDemand}
		tr, err := Generate(cfg)
		var unknown *UnknownScenarioError
		switch _, bad := presetOf(cfg.Scenario); {
		case !finite(start):
			if err == nil || !strings.Contains(err.Error(), "StartHour") {
				t.Fatalf("StartHour %v: err = %v, want one naming StartHour", start, err)
			}
			return
		case bad != nil:
			if !errors.As(err, &unknown) || unknown.Scenario != cfg.Scenario || !strings.Contains(err.Error(), "Scenario") {
				t.Fatalf("Scenario %q: err = %v, want *UnknownScenarioError naming Scenario", scenario, err)
			}
			return
		case err != nil:
			t.Fatalf("%+v: %v", cfg, err)
		}
		cfg.OnDemand = !onDemand
		other, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if traceDigest(tr) != traceDigest(other) {
			t.Fatalf("%+v: eager and on-demand traces differ", cfg)
		}
		for h, home := range tr.Homes {
			level := 0.0
			for w := range tr.Windows {
				g, l, b := tr.Gen[h][w], tr.Load[h][w], tr.Battery[h][w]
				if !finite(g) || !finite(l) || !finite(b) || g < 0 || l < 0.05/60 {
					t.Fatalf("%+v: home %d window %d: gen %v, load %v, battery %v", cfg, h, w, g, l, b)
				}
				if level += b; level < -1e-9 || level > home.BatteryCapKWh+1e-9 {
					t.Fatalf("%+v: home %d window %d: battery level %v outside [0, %v]", cfg, h, w, level, home.BatteryCapKWh)
				}
			}
		}
	})
}
