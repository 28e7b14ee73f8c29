package dataset

import (
	"math"
	"testing"
)

func testEvolution(t *testing.T, churn ChurnConfig) *Evolution {
	t.Helper()
	evo, err := Evolve(FleetConfig{
		Coalitions:        3,
		HomesPerCoalition: 4,
		Windows:           3,
		Seed:              77,
	}, churn)
	if err != nil {
		t.Fatal(err)
	}
	return evo
}

func TestEvolveDeterministic(t *testing.T) {
	churn := ChurnConfig{Epochs: 4, JoinRate: 0.2, DepartRate: 0.15, FailRate: 0.1}
	a := testEvolution(t, churn)
	b := testEvolution(t, churn)
	if len(a.Epochs) != 4 {
		t.Fatalf("%d epochs, want 4", len(a.Epochs))
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts diverge: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	for e := range a.Epochs {
		ta, tb := a.Epochs[e].Trace, b.Epochs[e].Trace
		if len(ta.Homes) != len(tb.Homes) {
			t.Fatalf("epoch %d roster sizes diverge", e)
		}
		for h := range ta.Homes {
			if ta.Homes[h] != tb.Homes[h] {
				t.Fatalf("epoch %d home %d diverged", e, h)
			}
			for w := 0; w < ta.Windows; w++ {
				if ta.Gen[h][w] != tb.Gen[h][w] || ta.Load[h][w] != tb.Load[h][w] || ta.Battery[h][w] != tb.Battery[h][w] {
					t.Fatalf("epoch %d home %d window %d trace diverged", e, h, w)
				}
			}
		}
	}
}

// TestEvolveChurnApplied: with aggressive rates over several epochs, the
// evolution must actually produce all three event kinds, remove leavers
// from later rosters, keep IDs unique, and preserve survivors' static
// parameters while redrawing their day data.
func TestEvolveChurnApplied(t *testing.T) {
	evo := testEvolution(t, ChurnConfig{Epochs: 5, JoinRate: 0.3, DepartRate: 0.2, FailRate: 0.15})
	var joins, departs, fails int
	for _, ev := range evo.Events {
		switch ev.Kind {
		case ChurnJoin:
			joins++
		case ChurnDepart:
			departs++
		case ChurnFail:
			fails++
		}
	}
	if joins == 0 || departs == 0 || fails == 0 {
		t.Fatalf("churn mix incomplete: %d joins, %d departs, %d fails", joins, departs, fails)
	}

	for e := 1; e < len(evo.Epochs); e++ {
		prev, cur := evo.Epochs[e-1].Trace, evo.Epochs[e].Trace
		prevByID := make(map[string]int, len(prev.Homes))
		for i, h := range prev.Homes {
			prevByID[h.ID] = i
		}
		seen := make(map[string]bool, len(cur.Homes))
		for i, h := range cur.Homes {
			if seen[h.ID] {
				t.Fatalf("epoch %d: duplicate ID %s", e, h.ID)
			}
			seen[h.ID] = true
			if j, ok := prevByID[h.ID]; ok {
				if prev.Homes[j] != h {
					t.Errorf("epoch %d: survivor %s static params changed", e, h.ID)
				}
				same := true
				for w := 0; w < cur.Windows; w++ {
					if cur.Gen[i][w] != prev.Gen[j][w] || cur.Load[i][w] != prev.Load[j][w] {
						same = false
					}
				}
				if same {
					t.Errorf("epoch %d: survivor %s day data not redrawn", e, h.ID)
				}
			}
		}
		for _, id := range append(evo.Epochs[e].Departed, evo.Epochs[e].Failed...) {
			if seen[id] {
				t.Errorf("epoch %d: leaver %s still on roster", e, id)
			}
			if _, ok := prevByID[id]; !ok {
				t.Errorf("epoch %d: leaver %s was not present before", e, id)
			}
		}
		for _, id := range evo.Epochs[e].Joined {
			if !seen[id] {
				t.Errorf("epoch %d: join %s missing from roster", e, id)
			}
			if _, ok := prevByID[id]; ok {
				t.Errorf("epoch %d: join %s already present before", e, id)
			}
		}
	}
}

// TestEvolveRosterFloor: brutal departure rates must not shrink the fleet
// below MinHomes — leavers are vetoed deterministically instead — and the
// fleet does reach the floor.
func TestEvolveRosterFloor(t *testing.T) {
	evo := testEvolution(t, ChurnConfig{Epochs: 6, DepartRate: 0.45, FailRate: 0.4})
	for _, ef := range evo.Epochs {
		if len(ef.Trace.Homes) < MinHomes {
			t.Fatalf("epoch %d roster %d below floor %d", ef.Epoch, len(ef.Trace.Homes), MinHomes)
		}
	}
	if last := evo.Epochs[len(evo.Epochs)-1]; len(last.Trace.Homes) != MinHomes {
		t.Errorf("last epoch roster %d, want the floor %d", len(last.Trace.Homes), MinHomes)
	}
}

// TestEvolveTraceSane: every epoch's trace must produce valid market agents
// and finite window inputs end to end.
func TestEvolveTraceSane(t *testing.T) {
	evo := testEvolution(t, ChurnConfig{Epochs: 3, JoinRate: 0.25, DepartRate: 0.2})
	for _, ef := range evo.Epochs {
		for _, a := range ef.Trace.Agents() {
			if err := a.Validate(); err != nil {
				t.Fatalf("epoch %d: %v", ef.Epoch, err)
			}
		}
		for w := 0; w < ef.Trace.Windows; w++ {
			inputs, err := ef.Trace.WindowInputs(w)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range inputs {
				if math.IsNaN(in.Generation) || math.IsInf(in.Generation, 0) || in.Generation < 0 {
					t.Fatalf("epoch %d home %d window %d: bad generation %v", ef.Epoch, i, w, in.Generation)
				}
			}
		}
	}
}

// TestEvolveRejectsBadConfig: churn the run could not honour fails up
// front. A NaN or infinite rate would otherwise draw no churn at all.
func TestEvolveRejectsBadConfig(t *testing.T) {
	fleet := FleetConfig{Coalitions: 1, HomesPerCoalition: 4, Windows: 2, Seed: 1}
	cases := map[string]ChurnConfig{
		"zero epochs":        {Epochs: 0},
		"depart+fail ≥ 1":    {Epochs: 2, DepartRate: 0.6, FailRate: 0.5},
		"negative join rate": {Epochs: 2, JoinRate: -0.1},
		"NaN join rate":      {Epochs: 2, JoinRate: math.NaN()},
		"NaN depart rate":    {Epochs: 2, DepartRate: math.NaN()},
		"NaN fail rate":      {Epochs: 2, FailRate: math.NaN()},
		"infinite join rate": {Epochs: 2, JoinRate: math.Inf(1)},
	}
	for name, churn := range cases {
		if _, err := Evolve(fleet, churn); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
