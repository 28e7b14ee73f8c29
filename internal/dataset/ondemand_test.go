package dataset

import (
	"fmt"
	"math"
	"testing"
)

// sameTrace asserts two traces carry identical rosters and day data,
// materializing b as needed.
func sameTrace(t *testing.T, label string, a, b *Trace) {
	t.Helper()
	b.Materialize()
	if len(a.Homes) != len(b.Homes) || a.Windows != b.Windows || a.StartHour != b.StartHour {
		t.Fatalf("%s: shape differs: %d/%d homes, %d/%d windows", label, len(a.Homes), len(b.Homes), a.Windows, b.Windows)
	}
	for h := range a.Homes {
		if a.Homes[h] != b.Homes[h] {
			t.Fatalf("%s: home %d statics differ: %+v vs %+v", label, h, a.Homes[h], b.Homes[h])
		}
		for w := 0; w < a.Windows; w++ {
			if a.Gen[h][w] != b.Gen[h][w] || a.Load[h][w] != b.Load[h][w] || a.Battery[h][w] != b.Battery[h][w] {
				t.Fatalf("%s: home %d window %d day data differs", label, h, w)
			}
		}
	}
}

// TestOnDemandBitIdentical is the lazy-synthesis contract: an OnDemand
// trace materializes to exactly the eager trace of the same config, for
// plain Generate, fleet synthesis, and a full churn evolution.
// pending reports whether the trace still has unmaterialized homes.
func pending(t *Trace) bool {
	for _, s := range t.synth {
		if s != nil {
			return true
		}
	}
	return false
}

func TestOnDemandBitIdentical(t *testing.T) {
	cfg := Config{Homes: 12, Windows: 40, Seed: 7}
	eager, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnDemand = true
	lazy, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pending(lazy) {
		t.Fatal("OnDemand trace reports eager")
	}
	sameTrace(t, "generate", eager, lazy)
	if pending(lazy) {
		t.Error("materialized trace still reports lazy")
	}

	fc := FleetConfig{Coalitions: 3, HomesPerCoalition: 4, Windows: 24, Seed: 11, StartHour: 11}
	eagerFleet, err := GenerateFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	fc.OnDemand = true
	lazyFleet, err := GenerateFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "fleet", eagerFleet, lazyFleet)

	cc := ChurnConfig{Epochs: 3, JoinRate: 0.2, DepartRate: 0.1, FailRate: 0.05}
	fc.OnDemand = false
	eagerEvo, err := Evolve(fc, cc)
	if err != nil {
		t.Fatal(err)
	}
	fc.OnDemand = true
	lazyEvo, err := Evolve(fc, cc)
	if err != nil {
		t.Fatal(err)
	}
	if len(eagerEvo.Epochs) != len(lazyEvo.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(eagerEvo.Epochs), len(lazyEvo.Epochs))
	}
	for e := range eagerEvo.Epochs {
		sameTrace(t, "evolve", eagerEvo.Epochs[e].Trace, lazyEvo.Epochs[e].Trace)
	}
}

// TestOnDemandSelectIsolation checks the streaming memory model: a
// Select-ed sub-trace materializes into itself, leaving the parent lazy, so
// day data lives only as long as the coalition sub-traces using it.
func TestOnDemandSelectIsolation(t *testing.T) {
	cfg := Config{Homes: 10, Windows: 16, Seed: 3, OnDemand: true}
	lazy, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnDemand = false
	eager, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sub, err := lazy.Select([]int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	in, err := sub.WindowInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	if in[0].Generation != eager.Gen[4][5] || in[1].Load != eager.Load[2][5] {
		t.Error("sub-trace day data does not match the eager counterpart")
	}
	if !pending(lazy) {
		t.Error("parent materialized as a side effect of the sub-trace")
	}
	for h, row := range lazy.Gen {
		if row != nil {
			t.Errorf("parent home %d materialized", h)
		}
	}
}

// TestDayRowsMatchesMaterialize: DayRows returns, == by ==, the rows
// Materialize stores, on every trace source — an eager Generate, an OnDemand
// GenerateFleet, every epoch of an OnDemand Evolve under churn and a lazy
// trace with one home already materialized. A pending home
// writes every window of a NaN-filled buffer and stays pending; a
// materialized one returns its stored rows.
func TestDayRowsMatchesMaterialize(t *testing.T) {
	eager, err := Generate(Config{Homes: 4, Windows: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fc := FleetConfig{Coalitions: 3, HomesPerCoalition: 3, Windows: 30, Seed: 5, StartHour: 11, OnDemand: true}
	fleet, err := GenerateFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	evo, err := Evolve(fc, ChurnConfig{Epochs: 3, JoinRate: 0.3, DepartRate: 0.1, FailRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	partly, err := GenerateFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	partly.materialize(4)

	traces := map[string]*Trace{"generate": eager, "fleet": fleet, "partly": partly}
	for _, ef := range evo.Epochs {
		traces[fmt.Sprintf("evolve/%d", ef.Epoch)] = ef.Trace
	}
	for name, tr := range traces {
		for h := range tr.Homes {
			wasPending := tr.synth != nil && tr.synth[h] != nil
			buf := make([]float64, 3*tr.Windows)
			for i := range buf {
				buf[i] = math.NaN()
			}
			gen, load, batt := tr.DayRows(h, buf)
			if wasPending && (tr.synth[h] == nil || tr.Gen[h] != nil) {
				t.Fatalf("%s: DayRows stored pending home %d", name, h)
			}
			if !wasPending && &gen[0] != &tr.Gen[h][0] {
				t.Errorf("%s: materialized home %d: DayRows copied its rows", name, h)
			}
			tr.materialize(h)
			if len(gen) != tr.Windows || len(load) != tr.Windows || len(batt) != tr.Windows {
				t.Fatalf("%s: home %d: rows of %d/%d/%d windows, want %d", name, h, len(gen), len(load), len(batt), tr.Windows)
			}
			for w := range gen {
				if gen[w] != tr.Gen[h][w] || load[w] != tr.Load[h][w] || batt[w] != tr.Battery[h][w] {
					t.Fatalf("%s: home %d window %d: DayRows %v/%v/%v, Materialize %v/%v/%v", name, h, w,
						gen[w], load[w], batt[w], tr.Gen[h][w], tr.Load[h][w], tr.Battery[h][w])
				}
			}
		}
	}
}
