package pem_test

import (
	"context"
	"crypto/sha256"
	"slices"
	"testing"
	"time"

	"github.com/pem-go/pem"
)

func testFleetTrace(t *testing.T, coalitions, homes, windows int) *pem.Trace {
	t.Helper()
	tr, err := pem.GenerateFleet(pem.FleetConfig{
		Coalitions:        coalitions,
		HomesPerCoalition: homes,
		Windows:           windows,
		Seed:              99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGridPublicAPI(t *testing.T) {
	tr := testFleetTrace(t, 2, 3, 2)
	g, err := pem.NewGrid(pem.GridConfig{
		Market:     pem.Config{KeyBits: 256, Seed: seedPtr(12)},
		Coalitions: 2,
		Partition:  pem.PartitionBalanced,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}

	// The partition must cover the fleet exactly once.
	seen := make(map[string]bool)
	parts := g.Partition()
	if len(parts) != 2 {
		t.Fatalf("%d coalitions, want 2", len(parts))
	}
	for _, ids := range parts {
		if len(ids) != 3 {
			t.Fatalf("coalition size %d, want 3", len(ids))
		}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("agent %s in two coalitions", id)
			}
			seen[id] = true
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := g.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 4 || len(res.Coalitions) != 2 {
		t.Fatalf("run shape: %d windows, %d coalitions", res.Windows, len(res.Coalitions))
	}

	// Every coalition trades the members its public partition names, under
	// their mixed scenario blocks, to the plaintext oracle.
	for i := range res.Coalitions {
		cr := &res.Coalitions[i]
		if cr.Err != nil || !slices.Equal(cr.IDs, parts[i]) {
			t.Fatalf("coalition %s ran %v, partition %v: %v", cr.Name, cr.IDs, parts[i], cr.Err)
		}
		checkCoalition(t, sha256.New(), tr, cr)
	}

	if res.Settlement == nil || len(res.Settlement.PerCoalition) != 2 {
		t.Fatalf("settlement missing: %+v", res.Settlement)
	}
	// Fleet is the running sum of per-coalition settlements (each settled
	// alone at its feeder), so cross-check against the exact same sums —
	// not ImportKWh·price, which differs by float non-distributivity.
	fleet := res.Settlement.Fleet
	var impCost, expRev float64
	for _, cs := range res.Settlement.PerCoalition {
		impCost += cs.ImportCost
		expRev += cs.ExportRevenue
	}
	if fleet.ImportCost != impCost || fleet.ExportRevenue != expRev {
		t.Errorf("fleet settlement inconsistent: %+v", fleet)
	}
}

// TestGridBitIdenticalAcrossConcurrency is the public acceptance check:
// with the partition strategy held fixed, a seeded grid run is
// bit-identical per coalition at any coalition concurrency.
func TestGridBitIdenticalAcrossConcurrency(t *testing.T) {
	tr := testFleetTrace(t, 3, 2, 2)
	run := func(conc int) *pem.GridResult {
		t.Helper()
		g, err := pem.NewGrid(pem.GridConfig{
			Market:                  pem.Config{KeyBits: 256, Seed: seedPtr(8)},
			Coalitions:              3,
			Partition:               pem.PartitionFixed,
			MaxConcurrentCoalitions: conc,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
		defer cancel()
		res, err := g.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, conc := range []int{2, 3} {
		res := run(conc)
		for i := range base.Coalitions {
			a, b := base.Coalitions[i], res.Coalitions[i]
			if len(a.Results) != len(b.Results) {
				t.Fatalf("conc %d: coalition %d window counts differ", conc, i)
			}
			for w := range a.Results {
				ra, rb := a.Results[w], b.Results[w]
				if ra.Price != rb.Price || ra.PHat != rb.PHat || ra.Kind != rb.Kind ||
					ra.BytesOnWire != rb.BytesOnWire || len(ra.Trades) != len(rb.Trades) {
					t.Fatalf("conc %d: coalition %d window %d diverged", conc, i, w)
				}
				for k := range ra.Trades {
					if ra.Trades[k] != rb.Trades[k] {
						t.Fatalf("conc %d: coalition %d window %d trade %d diverged", conc, i, w, k)
					}
				}
			}
		}
	}
}

func TestNewGridValidation(t *testing.T) {
	tr := testFleetTrace(t, 2, 2, 1)
	cases := map[string]pem.GridConfig{
		"no-coalitions": {Market: pem.Config{KeyBits: 256}},
		"too-many":      {Market: pem.Config{KeyBits: 256}, Coalitions: 3},
		"unknown-split": {Market: pem.Config{KeyBits: 256}, Coalitions: 2, Partition: "zodiac"},
		"negative-budget": {
			Market: pem.Config{KeyBits: 256}, Coalitions: 2, MaxConcurrentCoalitions: -1,
		},
		"min-coalition-1": {Market: pem.Config{KeyBits: 256}, Coalitions: 2, MinCoalition: 1},
		"zero-fanout":     {Market: pem.Config{KeyBits: 256}, Coalitions: 2, Tiers: []int{2, 0}},
	}
	// A statically-bad config fails at construction, exactly as NewLiveGrid
	// rejects it — never as late as Run.
	for name, cfg := range cases {
		if _, err := pem.NewGrid(cfg, tr); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := pem.NewGrid(pem.GridConfig{Coalitions: 1}, nil); err == nil {
		t.Error("nil trace accepted")
	}
}

// TestGridStreamAndTiersPublicAPI: the streaming variant delivers every
// coalition in partition order and folds to the same settlement as Run, and
// a tiered grid settles hierarchically with the 1-tier singleton identity
// holding at the public surface.
func TestGridStreamAndTiersPublicAPI(t *testing.T) {
	tr := testFleetTrace(t, 2, 3, 2)
	mk := func(tiers []int) *pem.Grid {
		t.Helper()
		g, err := pem.NewGrid(pem.GridConfig{
			Market:     pem.Config{KeyBits: 256, Seed: seedPtr(12)},
			Coalitions: 2,
			Partition:  pem.PartitionFixed,
			Tiers:      tiers,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	batch, err := mk(nil).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var names []string
	streamed, err := mk(nil).Stream(ctx, func(cr *pem.CoalitionRun) error {
		if cr.Results == nil {
			t.Errorf("%s delivered without results", cr.Name)
		}
		names = append(names, cr.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "c00" || names[1] != "c01" {
		t.Fatalf("stream order %v, want [c00 c01]", names)
	}
	if streamed.Coalitions != nil {
		t.Error("streamed result retained coalitions")
	}
	if streamed.Settlement.Fleet != batch.Settlement.Fleet || streamed.Windows != batch.Windows {
		t.Error("streamed fold diverged from batch Run")
	}
	if _, err := mk(nil).Stream(ctx, nil); err == nil {
		t.Error("nil sink accepted")
	}

	// Singleton districts are no-op wrappers: the tiered fleet settlement is
	// bit-identical to the flat one, and the per-tier outcomes are exposed.
	tiered, err := mk([]int{1}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Tiers == nil || len(tiered.Tiers.Tiers) != 2 {
		t.Fatalf("tiered run missing tier outcomes: %+v", tiered.Tiers)
	}
	if tiered.Tiers.MatchedKWh != 0 {
		t.Errorf("singleton districts netted %v kWh", tiered.Tiers.MatchedKWh)
	}
	if tiered.Settlement.Fleet != batch.Settlement.Fleet {
		t.Errorf("1-tier settlement diverged from flat: %+v vs %+v",
			tiered.Settlement.Fleet, batch.Settlement.Fleet)
	}
}
