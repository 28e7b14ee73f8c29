package grid

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
)

// foldedDay returns a function running one folded two-home coalition-day
// exactly as the supervisor does — Select on a lazy fleet, on-demand day
// synthesis, the one-pass tariff accounting of every window's residual and
// flows — over a fresh sub-trace each call (the parent stays lazy).
func foldedDay(tb testing.TB, windows int) func() *CoalitionRun {
	tb.Helper()
	tr, err := dataset.GenerateFleet(dataset.FleetConfig{
		Coalitions: 1, HomesPerCoalition: 2, Windows: windows, Seed: 42, StartHour: 7, OnDemand: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return func() *CoalitionRun {
		cr := &CoalitionRun{Name: "c00", Members: []int{0, 1}}
		runCoalition(context.Background(), Config{}, core.Resources{}, tr, cr)
		if !cr.Folded {
			tb.Fatalf("two-home coalition not folded: %v", cr.Err)
		}
		return cr
	}
}

// foldedDayAllocs is the ceiling on heap allocations of one folded two-home
// coalition-day, whatever its length: the sub-trace and its rows (3 per
// home), the roster's IDs, the per-member flow and touched slices and the
// Flows map. Measured 19 (19–20 under the race detector, whose
// instrumentation moves a value to the heap).
const foldedDayAllocs = 28

// TestFoldedCoalitionDayAllocsPerDay: the tariff path allocates per
// coalition-day, not per window — a 720-window day costs the allocations of
// a 60-window one (larger, not more; equal, but for race-detector jitter),
// under a stated ceiling. A per-window slice or map write shows up as 660
// extra.
func TestFoldedCoalitionDayAllocsPerDay(t *testing.T) {
	counts := make(map[int]float64)
	for _, windows := range []int{60, 720} {
		day := foldedDay(t, windows)
		if cr := day(); len(cr.Flows) != 2 || cr.Residual.ImportKWh <= 0 {
			t.Fatalf("%d windows: folded day did no accounting: %+v", windows, cr)
		}
		counts[windows] = testing.AllocsPerRun(20, func() { day() })
	}
	if d := counts[720] - counts[60]; d < -4 || d > 4 {
		t.Errorf("allocations grow with the day: %v at 60 windows, %v at 720", counts[60], counts[720])
	}
	if counts[720] > foldedDayAllocs {
		t.Errorf("%v allocations per folded coalition-day, ceiling %d", counts[720], foldedDayAllocs)
	}
}

var sinkRun *CoalitionRun

// BenchmarkFoldedCoalitionDay is fleet.tiered's unit of work: one two-home
// coalition's 720-window day on the tariff path. Run with -benchmem; ns/op
// × 50 000 ÷ cores is a fleet day.
func BenchmarkFoldedCoalitionDay(b *testing.B) {
	day := foldedDay(b, 720)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRun = day()
	}
}

// clearingDay is tariffDay's oracle, the folded day as the supervisor used
// to account it: every window's inputs (AppendWindowInputs) cleared by the
// "without PEM" baseline market.BaselineClearInto, then folded through
// ResidualFromClearing and a FlowAccumulator.
func clearingDay(t *testing.T, name string, sub *dataset.Trace) (market.CoalitionResidual, map[string]market.AgentFlows) {
	t.Helper()
	params, agents := Config{}.params(), sub.Agents()
	res := market.CoalitionResidual{Coalition: name}
	flows := market.NewFlowAccumulator(agents)
	var clr market.Clearing
	var in []market.WindowInput
	for w := 0; w < sub.Windows; w++ {
		var err error
		if in, err = sub.AppendWindowInputs(in[:0], w); err != nil {
			t.Fatal(err)
		}
		if err := market.BaselineClearInto(&clr, agents, in, params); err != nil {
			t.Fatal(err)
		}
		imp, exp := market.ResidualFromClearing(&clr)
		res.ImportKWh += imp
		res.ExportKWh += exp
		flows.Add(&clr, params)
	}
	return res, flows.Flows()
}

// checkFolded runs members of tr through runCoalition's folded branch and
// holds its residual and flows to clearingDay with ==, not a tolerance.
func checkFolded(t *testing.T, tr *dataset.Trace, name string, members []int) {
	t.Helper()
	sub, err := tr.Select(members)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantFlows := clearingDay(t, name, sub)
	cr := &CoalitionRun{Name: name, Members: members}
	runCoalition(context.Background(), Config{MinCoalition: len(members) + 1}, core.Resources{}, tr, cr)
	if !cr.Folded || cr.Err != nil {
		t.Fatalf("%s: folded %v, err %v", name, cr.Folded, cr.Err)
	}
	if cr.Residual != wantRes {
		t.Errorf("%s: residual %+v, clearing %+v", name, cr.Residual, wantRes)
	}
	if !reflect.DeepEqual(cr.Flows, wantFlows) {
		t.Errorf("%s: flows %+v, clearing %+v", name, cr.Flows, wantFlows)
	}
}

// craftedTrace is an eager trace over hand-written day rows, one per home.
func craftedTrace(gen, load, batt [][]float64) *dataset.Trace {
	tr := &dataset.Trace{Windows: len(gen[0]), Gen: gen, Load: load, Battery: batt}
	for i := range gen {
		tr.Homes = append(tr.Homes, dataset.Home{ID: fmt.Sprintf("h%d", i), K: 85, Epsilon: 0.9})
	}
	return tr
}

// TestTariffDayMatchesClearing: a folded coalition-day's one pass over its
// members' day rows is bit-identical to clearing every window — on seeded
// two-home coalitions of every scenario preset, on nets inside the ±0.5 µkWh
// off-role band, for a member without solar and a battery-only one, and on
// rosters of three and four homes, one of them never leaving the off role.
func TestTariffDayMatchesClearing(t *testing.T) {
	const coalitions = 2000
	fleet, err := dataset.GenerateFleet(dataset.FleetConfig{
		Coalitions: coalitions / 2, HomesPerCoalition: 4, Windows: 720, Seed: 11,
		Scenarios: dataset.Scenarios(), OnDemand: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < coalitions; c++ {
		checkFolded(t, fleet, fmt.Sprintf("c%04d", c), []int{2 * c, 2*c + 1})
	}

	// Nets around the role threshold (±0.5e-6 kWh) and exactly zero behind
	// random load and battery terms, where g - l - b and g - (l + b) can
	// round apart.
	rng := rand.New(rand.NewSource(5))
	const windows = 240
	rows := func(f func(w int) float64) []float64 {
		r := make([]float64, windows)
		for w := range r {
			r[w] = f(w)
		}
		return r
	}
	near := []float64{0, 1e-7, -1e-7, 4.9e-7, -4.9e-7, 5e-7, -5e-7, 5.1e-7, -5.1e-7, 2e-6, -2e-6}
	offLoad := rows(func(int) float64 { return rng.Float64() })
	offBatt := rows(func(int) float64 { return 0.3 * (rng.Float64() - 0.5) })
	offGen := rows(func(w int) float64 { return offLoad[w] + offBatt[w] + near[w%len(near)] })
	zero := rows(func(int) float64 { return 0 })
	noSolarLoad := rows(func(int) float64 { return 0.01 + 0.02*rng.Float64() })
	battOnly := rows(func(int) float64 { return 0.02 * (rng.Float64() - 0.5) })
	gen := rows(func(int) float64 { return 0.05 * rng.Float64() })
	load := rows(func(int) float64 { return 0.04 * rng.Float64() })
	batt := rows(func(int) float64 { return 0.01 * (rng.Float64() - 0.5) })
	crafted := craftedTrace(
		[][]float64{offGen, zero, zero, gen, zero},
		[][]float64{offLoad, noSolarLoad, zero, load, zero},
		[][]float64{offBatt, zero, battOnly, batt, zero})
	checkFolded(t, crafted, "off-role", []int{0, 3})
	checkFolded(t, crafted, "no-solar+battery-only", []int{1, 2})
	checkFolded(t, crafted, "three-homes", []int{3, 0, 2})
	checkFolded(t, crafted, "four-homes-one-idle", []int{2, 1, 4, 3})
}
