package market

import (
	"fmt"
	"math"
	mrand "math/rand"
	"testing"
)

// testFlows clears one three-agent window (one seller, two buyers) and
// returns the clearing with its per-agent flows.
func testFlows(t *testing.T) (*Clearing, map[string]AgentFlows) {
	t.Helper()
	agents := []Agent{
		{ID: "a", K: 80, Epsilon: 0.9},
		{ID: "b", K: 90, Epsilon: 0.85},
		{ID: "c", K: 100, Epsilon: 0.8},
	}
	inputs := []WindowInput{
		{Generation: 0.5, Load: 0.1}, // seller
		{Generation: 0.0, Load: 0.3}, // buyer
		{Generation: 0.0, Load: 0.4}, // buyer
	}
	c, err := Clear(agents, inputs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	acc := NewFlowAccumulator(agents)
	acc.Add(c, DefaultParams())
	return c, acc.Flows()
}

func TestFlowAccumulatorBalances(t *testing.T) {
	c, flows := testFlows(t)

	var sell, buy, earned, paid float64
	for _, f := range flows {
		sell += f.SellKWh
		buy += f.BuyKWh
		earned += f.EarnedCents
		paid += f.PaidCents
	}
	if math.Abs(sell-buy) > 1e-12 {
		t.Errorf("PEM energy imbalance: sold %v, bought %v", sell, buy)
	}
	if math.Abs(earned-paid) > 1e-9 {
		t.Errorf("PEM payment imbalance: earned %v, paid %v", earned, paid)
	}
	// The clearing's per-agent grid legs must land on the right side.
	for _, o := range c.Outcomes {
		f := flows[o.ID]
		switch o.Role {
		case RoleBuyer:
			if math.Abs(f.GridImportKWh-o.GridEnergy) > 1e-12 {
				t.Errorf("%s grid import %v, want %v", o.ID, f.GridImportKWh, o.GridEnergy)
			}
		case RoleSeller:
			if math.Abs(f.GridExportKWh-o.GridEnergy) > 1e-12 {
				t.Errorf("%s grid export %v, want %v", o.ID, f.GridExportKWh, o.GridEnergy)
			}
		}
	}
}

func TestPositionBookLifecycle(t *testing.T) {
	b := NewPositionBook()
	for _, id := range []string{"a", "b", "c"} {
		if err := b.Join(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Join("a", 1); err == nil {
		t.Error("double join accepted")
	}

	_, flows := testFlows(t)
	if err := b.Apply(0, flows); err != nil {
		t.Fatal(err)
	}
	if e, p := b.Conservation(); math.Abs(e) > 1e-12 || math.Abs(p) > 1e-9 {
		t.Errorf("conservation after apply: energy %v, payments %v", e, p)
	}

	// Depart "a": the position freezes with its flows as they were — its
	// grid legs are already in them.
	before := *b.byID["a"]
	if err := b.Exit("a", 0, "depart"); err != nil {
		t.Fatal(err)
	}
	after := *b.byID["a"]
	if after.Active() || after.ExitEpoch != 0 || after.ExitKind != "depart" {
		t.Errorf("exit not recorded: %+v", after)
	}
	if after.Flows != before.Flows {
		t.Errorf("exit changed the flows: %+v, before %+v", after.Flows, before.Flows)
	}

	// Frozen: no more flows, no second exit.
	if err := b.Apply(1, map[string]AgentFlows{"a": {BuyKWh: 1}}); err == nil {
		t.Error("applied flows to frozen position")
	}
	if err := b.Exit("a", 1, "fail"); err == nil {
		t.Error("double exit accepted")
	}
	if err := b.Exit("b", 1, "vanish"); err == nil {
		t.Error("unknown exit kind accepted")
	}
	if err := b.Apply(1, map[string]AgentFlows{"ghost": {}}); err == nil {
		t.Error("applied flows to unknown agent")
	}

	// The frozen position must not drift as others keep trading.
	if err := b.Apply(1, map[string]AgentFlows{"b": {BuyKWh: 1, PaidCents: 90}}); err != nil {
		t.Fatal(err)
	}
	again := *b.byID["a"]
	if again.Flows != after.Flows {
		t.Errorf("frozen position drifted: %+v vs %+v", again.Flows, after.Flows)
	}

	pos := b.Positions()
	if len(pos) != 3 || pos[0].ID != "a" || pos[1].ID != "b" || pos[2].ID != "c" {
		t.Errorf("positions not sorted by ID: %+v", pos)
	}
}

func TestPositionBookRejectsBadFlows(t *testing.T) {
	b := NewPositionBook()
	if err := b.Join("", 0); err == nil {
		t.Error("empty ID accepted")
	}
	if err := b.Join("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(0, map[string]AgentFlows{"a": {BuyKWh: -1}}); err == nil {
		t.Error("negative flow accepted")
	}
	if err := b.Apply(0, map[string]AgentFlows{"a": {SellKWh: math.NaN()}}); err == nil {
		t.Error("NaN flow accepted")
	}
}

// accumulateFlowsByID is the map-per-window accumulation FlowAccumulator
// replaced, kept as the reference for its semantics: a string-keyed
// read-modify-write per trade side and per positive grid leg, so an agent is
// a key iff something touched it.
func accumulateFlowsByID(dst map[string]AgentFlows, c *Clearing, params Params) {
	for _, tr := range c.Trades {
		s := dst[tr.Seller]
		s.SellKWh += tr.Energy
		s.EarnedCents += tr.Payment
		dst[tr.Seller] = s
		b := dst[tr.Buyer]
		b.BuyKWh += tr.Energy
		b.PaidCents += tr.Payment
		dst[tr.Buyer] = b
	}
	for _, o := range c.Outcomes {
		if o.GridEnergy <= 0 {
			continue
		}
		f := dst[o.ID]
		switch o.Role {
		case RoleBuyer:
			f.GridImportKWh += o.GridEnergy
			f.GridCostCents += o.GridEnergy * params.GridRetailPrice
		case RoleSeller:
			f.GridExportKWh += o.GridEnergy
			f.GridRevenueCents += o.GridEnergy * params.GridSellPrice
		}
		dst[o.ID] = f
	}
}

// TestFlowAccumulatorMatchesMapSemantics: over seeded random window
// sequences cleared by the PEM oracle (trades and grid legs) and by the
// grid-only baseline (grid legs alone), the indexed accumulator yields the
// reference's key set and bit-equal fields. Rosters include agents that stay
// off-market all day (net exactly 0), which must stay absent.
func TestFlowAccumulatorMatchesMapSemantics(t *testing.T) {
	params := DefaultParams()
	clearers := map[string]func(*Clearing, []Agent, []WindowInput, Params) error{
		"pem": ClearInto, "baseline": BaselineClearInto,
	}
	for name, clearInto := range clearers {
		var trades, absent int // the generator must reach both cases
		for seed := int64(1); seed <= 20; seed++ {
			rng := mrand.New(mrand.NewSource(seed))
			agents := make([]Agent, 2+rng.Intn(9))
			idle := make([]bool, len(agents))
			for i := range agents {
				agents[i] = Agent{ID: fmt.Sprintf("h%02d", i), K: 60 + 50*rng.Float64(), Epsilon: 0.75 + 0.2*rng.Float64()}
				idle[i] = rng.Intn(4) == 0
			}
			acc, want := NewFlowAccumulator(agents), make(map[string]AgentFlows)
			var clr Clearing
			for w := 0; w < 30; w++ {
				inputs := make([]WindowInput, len(agents))
				for i := range inputs {
					if !idle[i] {
						inputs[i] = WindowInput{Generation: rng.Float64() * float64(rng.Intn(2)), Load: rng.Float64()}
					}
				}
				if err := clearInto(&clr, agents, inputs, params); err != nil {
					t.Fatal(err)
				}
				acc.Add(&clr, params)
				accumulateFlowsByID(want, &clr, params)
				trades += len(clr.Trades)
			}
			got := acc.Flows()
			absent += len(agents) - len(got)
			if len(got) != len(want) {
				t.Errorf("%s seed %d: %d agents with flows, reference has %d", name, seed, len(got), len(want))
			}
			for id, w := range want {
				if g, ok := got[id]; !ok || g != w {
					t.Errorf("%s seed %d agent %s: flows %+v (present %v), reference %+v", name, seed, id, g, ok, w)
				}
			}
		}
		if absent == 0 || (trades > 0) != (name == "pem") {
			t.Errorf("%s: %d trades, %d untouched agents: the sequences miss a case", name, trades, absent)
		}
	}
}
