package dataset

import (
	"reflect"
	"testing"
)

func testFleetConfig() FleetConfig {
	return FleetConfig{
		Coalitions:        4,
		HomesPerCoalition: 6,
		Windows:           240,
		Seed:              77,
	}
}

func TestGenerateFleetShapeAndIDs(t *testing.T) {
	tr, err := GenerateFleet(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Homes) != 24 || tr.Windows != 240 {
		t.Fatalf("fleet shape: %d homes, %d windows", len(tr.Homes), tr.Windows)
	}
	ids := make(map[string]bool)
	for _, h := range tr.Homes {
		if ids[h.ID] {
			t.Fatalf("duplicate fleet ID %q", h.ID)
		}
		ids[h.ID] = true
	}
	if tr.Homes[0].ID != "c00-home-000" || tr.Homes[23].ID != "c03-home-005" {
		t.Errorf("block IDs: first=%q last=%q", tr.Homes[0].ID, tr.Homes[23].ID)
	}
	// The default rotation labels each block.
	want := DefaultFleetScenarios()
	for b := 0; b < 4; b++ {
		if got := tr.Homes[b*6].Scenario; got != want[b] {
			t.Errorf("block %d scenario = %q, want %q", b, got, want[b])
		}
	}
	// Agents derived from the fleet must validate (the engine will).
	for _, a := range tr.Agents() {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateFleetDeterministic(t *testing.T) {
	a, err := GenerateFleet(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFleet(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same fleet seed produced different fleets")
	}
	cfg := testFleetConfig()
	cfg.Seed++
	c, err := GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Gen, c.Gen) {
		t.Fatal("different fleet seeds produced identical generation")
	}
}

// TestScenarioContrast checks the presets actually differentiate the
// blocks: the sunny block generates more than the overcast and winter
// blocks, and the storage block has (near-)universal batteries.
func TestScenarioContrast(t *testing.T) {
	tr, err := GenerateFleet(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	blockGen := make([]float64, 4)
	for b := 0; b < 4; b++ {
		for h := b * 6; h < (b+1)*6; h++ {
			for w := 0; w < tr.Windows; w++ {
				blockGen[b] += tr.Gen[h][w]
			}
		}
	}
	sunny, overcast, winter := blockGen[0], blockGen[1], blockGen[2]
	if sunny <= overcast || sunny <= winter {
		t.Errorf("sunny block should out-generate overcast/winter: %v", blockGen)
	}
	batteries := 0
	for h := 18; h < 24; h++ {
		if tr.Homes[h].BatteryCapKWh > 0 {
			batteries++
		}
	}
	if batteries < 4 {
		t.Errorf("storage block has only %d/6 batteries", batteries)
	}
}

func TestGenerateFleetRejectsBadConfig(t *testing.T) {
	for name, cfg := range map[string]FleetConfig{
		"no-coalitions": {HomesPerCoalition: 2, Windows: 4},
		"no-homes":      {Coalitions: 2, Windows: 4},
	} {
		if _, err := GenerateFleet(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTraceSelect(t *testing.T) {
	tr, err := Generate(Config{Homes: 5, Windows: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tr.Select([]int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Homes) != 2 || sub.Homes[0].ID != tr.Homes[4].ID || sub.Homes[1].ID != tr.Homes[1].ID {
		t.Fatalf("selection order wrong: %+v", sub.Homes)
	}
	if &sub.Gen[0][0] != &tr.Gen[4][0] {
		t.Error("Select copied trace data instead of sharing slices")
	}
	in, err := sub.WindowInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	if in[1].Generation != tr.Gen[1][3] {
		t.Error("selected window inputs disagree with source trace")
	}
	for _, bad := range [][]int{nil, {5}, {-1}, {1, 1}} {
		if _, err := tr.Select(bad); err == nil {
			t.Errorf("Select(%v) accepted", bad)
		}
	}
}
