package grid

import (
	"context"
	"testing"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
)

// foldedDay returns a function running one folded two-home coalition-day
// exactly as the supervisor does — Select on a lazy fleet, on-demand day
// synthesis, grid-only clearing of every window, flow and residual
// accounting — over a fresh sub-trace each call (the parent stays lazy).
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
// home), one math/rand source per home, one inputs slice, one clearing's
// storage, the flow accumulator and the Flows map it ends as. Measured 31
// (33–35 under the race detector, whose instrumentation moves a few values
// to the heap).
const foldedDayAllocs = 40

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
