package market

import (
	"math"
	mrand "math/rand"
	"testing"
)

// TestSettleTiersFlatIdentity is the 1-tier contract: coalitions attached
// directly to the root settle bit-identically to the flat settleResiduals
// path — no tiers, no netting, same GridSettlement.
func TestSettleTiersFlatIdentity(t *testing.T) {
	params := DefaultParams()
	residuals := []CoalitionResidual{
		{Coalition: "c00", ImportKWh: 3.25, ExportKWh: 0.5},
		{Coalition: "c01", ImportKWh: 0, ExportKWh: 2.75},
		{Coalition: "c02", ImportKWh: 1.125, ExportKWh: 1.125},
	}
	flat, err := settleResiduals(residuals, params)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := SettleTiers(&TierNode{Name: "grid", Residuals: residuals}, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiered.Tiers) != 0 || tiered.MatchedKWh != 0 || tiered.NettingGainCents != 0 {
		t.Fatalf("flat hierarchy netted something: %+v", tiered)
	}
	if len(tiered.Grid.PerCoalition) != len(flat.PerCoalition) {
		t.Fatalf("per-coalition counts differ")
	}
	for i := range flat.PerCoalition {
		if tiered.Grid.PerCoalition[i] != flat.PerCoalition[i] {
			t.Errorf("coalition %d settles differently: %+v vs %+v", i, tiered.Grid.PerCoalition[i], flat.PerCoalition[i])
		}
	}
	if tiered.Grid.Fleet != flat.Fleet || tiered.Grid.MatchedKWh != flat.MatchedKWh ||
		tiered.Grid.NettingGainCents != flat.NettingGainCents {
		t.Errorf("grid settlement differs: %+v vs %+v", tiered.Grid, flat)
	}
}

// TestSettleTiersSingletonWrapper: a district holding one coalition must be
// a pure pass-through — zero matched, the coalition's exact quantities
// upward — because a child cannot net against itself.
func TestSettleTiersSingletonWrapper(t *testing.T) {
	params := DefaultParams()
	r := CoalitionResidual{Coalition: "c00", ImportKWh: 2.5, ExportKWh: 1.75}
	tiered, err := SettleTiers(&TierNode{
		Name:     "grid",
		Children: []*TierNode{{Name: "d00", Residuals: []CoalitionResidual{r}}},
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiered.Tiers) != 1 {
		t.Fatalf("want 1 tier, got %d", len(tiered.Tiers))
	}
	d := tiered.Tiers[0]
	if d.MatchedKWh != 0 || d.NettingGainCents != 0 {
		t.Errorf("singleton tier netted %v kWh", d.MatchedKWh)
	}
	if d.UpImportKWh != r.ImportKWh || d.UpExportKWh != r.ExportKWh {
		t.Errorf("singleton tier altered the position: %+v", d)
	}
	// The grid boundary sees the same quantities under the tier's name.
	flat, err := settleResiduals([]CoalitionResidual{{Coalition: "d00", ImportKWh: r.ImportKWh, ExportKWh: r.ExportKWh}}, params)
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Grid.Fleet != flat.Fleet {
		t.Errorf("wrapped settlement differs from direct: %+v vs %+v", tiered.Grid.Fleet, flat.Fleet)
	}
}

// TestSettleTiersNetsBeforeTariff: a district with one importing and one
// exporting coalition nets internally; only the remainder reaches the
// tariff.
func TestSettleTiersNetsBeforeTariff(t *testing.T) {
	params := DefaultParams()
	tiered, err := SettleTiers(&TierNode{
		Name: "grid",
		Children: []*TierNode{{
			Name: "d00",
			Residuals: []CoalitionResidual{
				{Coalition: "c00", ImportKWh: 5, ExportKWh: 0},
				{Coalition: "c01", ImportKWh: 0, ExportKWh: 3},
			},
		}},
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	d := tiered.Tiers[0]
	if d.MatchedKWh != 3 {
		t.Fatalf("district matched %v, want 3", d.MatchedKWh)
	}
	if d.UpImportKWh != 2 || d.UpExportKWh != 0 {
		t.Fatalf("upward residual (%v, %v), want (2, 0)", d.UpImportKWh, d.UpExportKWh)
	}
	wantGain := 3 * (params.GridRetailPrice - params.GridSellPrice)
	if d.NettingGainCents != wantGain || tiered.NettingGainCents != wantGain {
		t.Errorf("netting gain %v, want %v", d.NettingGainCents, wantGain)
	}
	if tiered.Grid.Fleet.ImportKWh != 2 || tiered.Grid.Fleet.ExportKWh != 0 {
		t.Errorf("tariff saw (%v, %v), want (2, 0)", tiered.Grid.Fleet.ImportKWh, tiered.Grid.Fleet.ExportKWh)
	}
}

// TestSettleTiersConservation is the property test: on random multi-level
// hierarchies, every tier conserves energy (gross = matched + upward per
// side) and the fleet-wide ledger balances — the leaves' total import
// equals the tiers' total matched energy plus what the tariff finally
// settles; likewise for export. The tiered fleet cost equals the flat cost
// minus the released netting gain.
func TestSettleTiersConservation(t *testing.T) {
	params := DefaultParams()
	rng := mrand.New(mrand.NewSource(41))
	const eps = 1e-9

	for trial := 0; trial < 50; trial++ {
		// Random tree: 2–4 regions, each 1–3 districts, each 1–4 coalitions,
		// plus the occasional coalition attached directly to a region or the
		// root (mixed tiers are legal).
		var leaves []CoalitionResidual
		serial := 0
		mkResidual := func() CoalitionResidual {
			r := CoalitionResidual{
				Coalition: "c" + string(rune('a'+serial/26)) + string(rune('a'+serial%26)),
				ImportKWh: rng.Float64() * 10,
				ExportKWh: rng.Float64() * 10,
			}
			serial++
			if rng.Float64() < 0.2 {
				r.ImportKWh = 0
			}
			if rng.Float64() < 0.2 {
				r.ExportKWh = 0
			}
			leaves = append(leaves, r)
			return r
		}
		root := &TierNode{Name: "grid"}
		for ri := 0; ri < 2+rng.Intn(3); ri++ {
			region := &TierNode{Name: "r" + string(rune('0'+ri))}
			for di := 0; di < 1+rng.Intn(3); di++ {
				district := &TierNode{Name: region.Name + "d" + string(rune('0'+di))}
				for ci := 0; ci < 1+rng.Intn(4); ci++ {
					district.Residuals = append(district.Residuals, mkResidual())
				}
				region.Children = append(region.Children, district)
			}
			if rng.Float64() < 0.3 {
				region.Residuals = append(region.Residuals, mkResidual())
			}
			root.Children = append(root.Children, region)
		}
		if rng.Float64() < 0.3 {
			root.Residuals = append(root.Residuals, mkResidual())
		}

		tiered, err := SettleTiers(root, params)
		if err != nil {
			t.Fatal(err)
		}

		var leafImp, leafExp float64
		for _, r := range leaves {
			leafImp += r.ImportKWh
			leafExp += r.ExportKWh
		}
		var matched float64
		for _, tier := range tiered.Tiers {
			if tier.MatchedKWh < -eps || tier.UpImportKWh < -eps || tier.UpExportKWh < -eps {
				t.Fatalf("trial %d: tier %s has negative quantities: %+v", trial, tier.Tier, tier)
			}
			if math.Abs(tier.GrossImportKWh-tier.MatchedKWh-tier.UpImportKWh) > eps ||
				math.Abs(tier.GrossExportKWh-tier.MatchedKWh-tier.UpExportKWh) > eps {
				t.Fatalf("trial %d: tier %s does not conserve: %+v", trial, tier.Tier, tier)
			}
			matched += tier.MatchedKWh
		}
		if math.Abs(matched-tiered.MatchedKWh) > eps {
			t.Fatalf("trial %d: tier matched sum %v != total %v", trial, matched, tiered.MatchedKWh)
		}
		if math.Abs(leafImp-matched-tiered.Grid.Fleet.ImportKWh) > eps {
			t.Fatalf("trial %d: import not conserved: leaves %v, matched %v, tariff %v",
				trial, leafImp, matched, tiered.Grid.Fleet.ImportKWh)
		}
		if math.Abs(leafExp-matched-tiered.Grid.Fleet.ExportKWh) > eps {
			t.Fatalf("trial %d: export not conserved: leaves %v, matched %v, tariff %v",
				trial, leafExp, matched, tiered.Grid.Fleet.ExportKWh)
		}

		// Tiered cost = flat cost − released gain (to rounding).
		flat, err := settleResiduals(leaves, params)
		if err != nil {
			t.Fatal(err)
		}
		wantCost := flat.Fleet.NetCost - tiered.NettingGainCents
		if math.Abs(tiered.Grid.Fleet.NetCost-wantCost) > 1e-6 {
			t.Fatalf("trial %d: tiered cost %v, want flat %v − gain %v = %v",
				trial, tiered.Grid.Fleet.NetCost, flat.Fleet.NetCost, tiered.NettingGainCents, wantCost)
		}
	}
}

// TestSettleTiersRejects covers the tree-shape errors: duplicate names,
// empty tiers, shared nodes, nil root.
func TestSettleTiersRejects(t *testing.T) {
	params := DefaultParams()
	if _, err := SettleTiers(nil, params); err == nil {
		t.Error("nil root accepted")
	}
	r := CoalitionResidual{Coalition: "c00", ImportKWh: 1}
	if _, err := SettleTiers(&TierNode{Name: "grid", Children: []*TierNode{
		{Name: "d00", Residuals: []CoalitionResidual{r}},
		{Name: "d00", Residuals: []CoalitionResidual{{Coalition: "c01", ImportKWh: 1}}},
	}}, params); err == nil {
		t.Error("duplicate tier name accepted")
	}
	if _, err := SettleTiers(&TierNode{Name: "grid", Children: []*TierNode{
		{Name: "c00", Residuals: []CoalitionResidual{r}},
	}, Residuals: []CoalitionResidual{r}}, params); err == nil {
		t.Error("tier name clashing with coalition name accepted")
	}
	if _, err := SettleTiers(&TierNode{Name: "grid", Children: []*TierNode{{Name: "d00"}}}, params); err == nil {
		t.Error("empty tier accepted")
	}
	shared := &TierNode{Name: "d00", Residuals: []CoalitionResidual{r}}
	if _, err := SettleTiers(&TierNode{Name: "grid", Children: []*TierNode{shared, shared}}, params); err == nil {
		t.Error("shared node accepted")
	}
	if _, err := SettleTiers(&TierNode{Name: "grid"}, params); err == nil {
		t.Error("childless root accepted")
	}
}
