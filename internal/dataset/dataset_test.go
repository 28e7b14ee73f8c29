package dataset

import (
	"bytes"
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

	// Nonsense that used to pass: a sunless or backwards day, inverted
	// bands (uniform drew from the mirrored one) and non-finite floats. The
	// error names the field.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"SunriseHour", func(c *Config) { c.SunriseHour = 20 }},
		{"SunriseHour", func(c *Config) { c.SunriseHour, c.SunsetHour = 12, 12 }},
		{"SunsetHour", func(c *Config) { c.SunsetHour = 5 }},
		{"SunsetHour", func(c *Config) { c.SunsetHour = inf }},
		{"SunriseHour", func(c *Config) { c.SunriseHour = -inf }},
		{"StartHour", func(c *Config) { c.StartHour = nan }},
		{"SolarCapMinKW", func(c *Config) { c.SolarCapMinKW = 10 }},
		{"SolarCapMaxKW", func(c *Config) { c.SolarCapMaxKW = 1 }},
		{"SolarCapMaxKW", func(c *Config) { c.SolarCapMaxKW = inf }},
		{"BaseLoadMinKW", func(c *Config) { c.BaseLoadMinKW = 3 }},
		{"BaseLoadMaxKW", func(c *Config) { c.BaseLoadMaxKW = nan }},
		{"KMin", func(c *Config) { c.KMin = 200 }},
		{"KMax", func(c *Config) { c.KMax = inf }},
		{"EpsilonMin", func(c *Config) { c.EpsilonMin = 0.99 }},
		{"EpsilonMax", func(c *Config) { c.EpsilonMax = nan }},
		{"SolarFraction", func(c *Config) { c.SolarFraction = nan }},
		{"BatteryFraction", func(c *Config) { c.BatteryFraction = -inf }},
		{"BatteryCapMinKWh", func(c *Config) { c.BatteryCapMinKWh = 12 }},
		{"BatteryCapMaxKWh", func(c *Config) { c.BatteryCapMaxKWh = nan }},
		{"CloudFloor", func(c *Config) { c.CloudFloor = 1.5 }},
		{"CloudFloor", func(c *Config) { c.CloudFloor = -0.1 }},
		{"CloudCeil", func(c *Config) { c.CloudCeil = nan }},
		{"CloudCeil", func(c *Config) { c.CloudCeil = 1.2 }},
	} {
		cfg := Config{Homes: 4, Windows: 10}
		tc.set(&cfg)
		if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s set to nonsense: err = %v, want one naming the field", tc.field, err)
		}
	}

	// Every preset still validates, bare and as a fleet block.
	for _, s := range Scenarios() {
		cfg, err := ScenarioConfig(s, 4, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s: %v", s, err)
		}
	}
	if _, err := GenerateFleet(FleetConfig{Coalitions: len(DefaultFleetScenarios()), HomesPerCoalition: 2, Windows: 10}); err != nil {
		t.Errorf("default fleet scenarios: %v", err)
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

func TestCSVRoundTrip(t *testing.T) {
	tr, err := Generate(Config{Homes: 4, Windows: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Homes) != 4 || back.Windows != 10 {
		t.Fatalf("round trip shapes: %d homes, %d windows", len(back.Homes), back.Windows)
	}
	for h := range tr.Homes {
		if back.Homes[h].ID != tr.Homes[h].ID {
			t.Errorf("home %d id mismatch", h)
		}
		if math.Abs(back.Homes[h].K-tr.Homes[h].K) > 1e-12 {
			t.Errorf("home %d K mismatch", h)
		}
		for w := 0; w < tr.Windows; w++ {
			if math.Abs(back.Gen[h][w]-tr.Gen[h][w]) > 1e-12 {
				t.Errorf("gen mismatch at (%d,%d)", h, w)
			}
			if math.Abs(back.Battery[h][w]-tr.Battery[h][w]) > 1e-12 {
				t.Errorf("battery mismatch at (%d,%d)", h, w)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"header only": "home_id,solar_cap_kw,base_load_kw,k,epsilon,battery_cap_kwh,window,gen_kwh,load_kwh,battery_kwh\n",
		"wrong width": "a,b\n1,2\n",
		"bad number":  "home_id,solar_cap_kw,base_load_kw,k,epsilon,battery_cap_kwh,window,gen_kwh,load_kwh,battery_kwh\nh1,x,1,1,0.9,0,0,0.1,0.1,0\n",
		"bad window":  "home_id,solar_cap_kw,base_load_kw,k,epsilon,battery_cap_kwh,window,gen_kwh,load_kwh,battery_kwh\nh1,1,1,1,0.9,0,zz,0.1,0.1,0\n",
		"missing cell": "home_id,solar_cap_kw,base_load_kw,k,epsilon,battery_cap_kwh,window,gen_kwh,load_kwh,battery_kwh\n" +
			"a,1,1,1,0.9,0,0,0.1,0.1,0\na,1,1,1,0.9,0,2,0.1,0.1,0\nb,1,1,1,0.9,0,0,0.1,0.1,0\n",
		"duplicate cell": "home_id,solar_cap_kw,base_load_kw,k,epsilon,battery_cap_kwh,window,gen_kwh,load_kwh,battery_kwh\n" +
			"a,1,1,1,0.9,0,0,0.1,0.1,0\na,1,1,1,0.9,0,0,0.2,0.1,0\n",
		"nan": "home_id,solar_cap_kw,base_load_kw,k,epsilon,battery_cap_kwh,window,gen_kwh,load_kwh,battery_kwh\nh1,1,1,1,0.9,0,0,NaN,0.1,0\n",
		"inf": "home_id,solar_cap_kw,base_load_kw,k,epsilon,battery_cap_kwh,window,gen_kwh,load_kwh,battery_kwh\nh1,1,1,Inf,0.9,0,0,0.1,0.1,0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestScenarios(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			tr, err := GenerateScenario(s, 40, 240, 17)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Homes) != 40 || tr.Windows != 240 {
				t.Fatal("shape wrong")
			}
		})
	}
	if _, err := GenerateScenario("volcanic", 10, 10, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestScenarioMarketRegimes(t *testing.T) {
	// The presets must actually produce distinct market regimes: sunny
	// days push supply past demand (extreme markets); overcast days stay
	// demand-dominated.
	count := func(s Scenario) (extremeish, generalish int) {
		tr, err := GenerateScenario(s, 60, 720, 23)
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
