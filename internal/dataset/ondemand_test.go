package dataset

import (
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
