package market

import (
	"math"
	"testing"
)

func TestSettleResiduals(t *testing.T) {
	params := DefaultParams() // feed-in 80, retail 120
	s, err := SettleResiduals([]CoalitionResidual{
		{Coalition: "c1", ImportKWh: 10, ExportKWh: 0},
		{Coalition: "c0", ImportKWh: 2, ExportKWh: 6},
		{Coalition: "c2", ImportKWh: 0, ExportKWh: 1},
	}, params)
	if err != nil {
		t.Fatal(err)
	}

	if len(s.PerCoalition) != 3 || s.PerCoalition[0].Coalition != "c0" || s.PerCoalition[2].Coalition != "c2" {
		t.Fatalf("per-coalition order: %+v", s.PerCoalition)
	}
	c0 := s.PerCoalition[0]
	if c0.ImportCost != 2*120 || c0.ExportRevenue != 6*80 || c0.NetCost != 240-480 {
		t.Errorf("c0 settlement wrong: %+v", c0)
	}

	if s.Fleet.ImportKWh != 12 || s.Fleet.ExportKWh != 7 {
		t.Errorf("fleet totals: %+v", s.Fleet)
	}
	if s.Fleet.NetCost != 12*120-7*80 {
		t.Errorf("fleet net cost = %v", s.Fleet.NetCost)
	}
	// Netting: min(12, 7) = 7 kWh could trade across coalitions, releasing
	// (120-80) cents/kWh of spread.
	if s.MatchedKWh != 7 || s.NettingGainCents != 7*40 {
		t.Errorf("netting: matched=%v gain=%v", s.MatchedKWh, s.NettingGainCents)
	}
}

func TestSettleResidualsRejectsBadInput(t *testing.T) {
	params := DefaultParams()
	cases := map[string][]CoalitionResidual{
		"empty":     {},
		"noname":    {{Coalition: "", ImportKWh: 1}},
		"duplicate": {{Coalition: "a"}, {Coalition: "a"}},
		"negative":  {{Coalition: "a", ImportKWh: -1}},
		"nan":       {{Coalition: "a", ExportKWh: math.NaN()}},
		"inf":       {{Coalition: "a", ImportKWh: math.Inf(1)}},
	}
	for name, in := range cases {
		if _, err := SettleResiduals(in, params); err == nil {
			t.Errorf("%s: accepted %+v", name, in)
		}
	}
}

// TestResidualFromClearing cross-checks the residual extraction against the
// clearing invariants on a concrete mixed window.
func TestResidualFromClearing(t *testing.T) {
	agents := []Agent{
		{ID: "s1", K: 80, Epsilon: 0.9},
		{ID: "b1", K: 70, Epsilon: 0.85},
		{ID: "b2", K: 90, Epsilon: 0.8},
	}
	// Supply 0.5 < demand 0.9: general market; residual import 0.4, no
	// residual export.
	inputs := []WindowInput{
		{Generation: 0.6, Load: 0.1},
		{Generation: 0.0, Load: 0.5},
		{Generation: 0.1, Load: 0.5},
	}
	c, err := Clear(agents, inputs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	imp, exp := ResidualFromClearing(c)
	if math.Abs(imp-(c.Demand-c.Supply)) > 1e-9 {
		t.Errorf("import = %v, want demand-supply = %v", imp, c.Demand-c.Supply)
	}
	if exp != 0 {
		t.Errorf("export = %v, want 0", exp)
	}
	if math.Abs(imp+exp-c.GridInteraction()) > 1e-9 {
		t.Errorf("residuals %v+%v disagree with GridInteraction %v", imp, exp, c.GridInteraction())
	}
}
