package grid

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
)

// coalitionDigest is the light per-coalition fingerprint used to compare
// streamed deliveries against batch runs bit for bit: everything that
// survives the payload release plus the ledger chain head.
type coalitionDigest struct {
	Name      string
	ChainHead string
	Residual  market.CoalitionResidual
	Bytes     int64
	Msgs      int64
	Windows   int
	Folded    bool
}

func digest(cr *CoalitionRun) coalitionDigest {
	return coalitionDigest{
		Name: cr.Name, ChainHead: cr.ChainHead, Residual: cr.Residual,
		Bytes: cr.Bytes, Msgs: cr.Msgs, Windows: cr.Windows, Folded: cr.Folded,
	}
}

// TestGridTiersSingletonIdentity is the grid-level 1-tier acceptance check:
// wrapping every coalition in its own singleton district (Tiers = [1]) must
// reproduce the flat grid bit for bit — same per-coalition outcomes and
// ledger heads, zero netting at every tier, and an identical fleet
// settlement — because a singleton tier is a pure pass-through wrapper.
func TestGridTiersSingletonIdentity(t *testing.T) {
	tr := testFleet(t, 3, 3, 2)
	parts, err := Partition(StrategyFixed, tr.Homes, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	flat, err := Run(ctx, Config{Engine: testEngineConfig(33)}, tr, parts)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Tiers != nil {
		t.Fatal("flat run reports tiers")
	}
	tiered, err := Run(ctx, Config{Engine: testEngineConfig(33), Tiers: []int{1}}, tr, parts)
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Tiers == nil || len(tiered.Tiers.Tiers) != 3 {
		t.Fatalf("singleton hierarchy missing tiers: %+v", tiered.Tiers)
	}
	for _, ts := range tiered.Tiers.Tiers {
		if ts.MatchedKWh != 0 || ts.NettingGainCents != 0 {
			t.Errorf("singleton tier %s netted %v kWh", ts.Tier, ts.MatchedKWh)
		}
	}
	for i := range flat.Coalitions {
		if da, db := digest(&flat.Coalitions[i]), digest(&tiered.Coalitions[i]); da != db {
			t.Errorf("coalition %d diverged under singleton tiers:\n%+v\nvs\n%+v", i, da, db)
		}
	}
	// The grid boundary sees the exact same quantities (under district
	// names), so the fleet settlement is bit-identical.
	if tiered.Settlement.Fleet != flat.Settlement.Fleet {
		t.Errorf("fleet settlement diverged: %+v vs %+v", tiered.Settlement.Fleet, flat.Settlement.Fleet)
	}
	if tiered.Settlement != tiered.Tiers.Grid {
		t.Error("tiered Settlement is not the hierarchy's grid boundary")
	}
}

// TestGridTiersWithFoldedCoalitions runs a multi-tier hierarchy over a
// partition whose tail coalitions fall below MinCoalition and fold to
// grid-tariff service: their residuals must flow through the tier tree like
// everyone else's, and energy must be conserved from coalition leaves
// through tier netting to the tariff boundary.
func TestGridTiersWithFoldedCoalitions(t *testing.T) {
	tr := testFleet(t, 3, 4, 1) // 12 homes
	// Five coalitions of sizes 3,3,2,2,2 — the last three fold under the
	// default floor of 3. Tiers[0]=2 groups them d00(c0,c1), d01(c2,c3),
	// d02(c4); Tiers[1]=2 wraps the districts r00(d00,d01), r01(d02).
	parts, err := Partition(StrategyFixed, tr.Homes, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{Engine: testEngineConfig(35), Tiers: []int{2, 2}}, tr, parts)
	if err != nil {
		t.Fatal(err)
	}

	folded := 0
	for _, cr := range res.Coalitions {
		if cr.Folded {
			folded++
		}
	}
	if folded != 3 {
		t.Fatalf("%d folded coalitions, want 3", folded)
	}
	if res.Tiers == nil {
		t.Fatal("no tiered settlement")
	}
	// TierSettlement.Level is depth below the root: regions are the root's
	// children (level 1), districts sit beneath them (level 2).
	wantTiers := map[string]int{"d00": 2, "d01": 2, "d02": 2, "r00": 1, "r01": 1}
	if len(res.Tiers.Tiers) != len(wantTiers) {
		t.Fatalf("%d tiers, want %d: %+v", len(res.Tiers.Tiers), len(wantTiers), res.Tiers.Tiers)
	}
	for _, ts := range res.Tiers.Tiers {
		if lvl, ok := wantTiers[ts.Tier]; !ok || lvl != ts.Level {
			t.Errorf("unexpected tier %s at level %d", ts.Tier, ts.Level)
		}
	}

	// Conservation: leaves (folded included) = tier matched + tariff, both
	// sides.
	var leafImp, leafExp float64
	for _, cr := range res.Coalitions {
		if cr.settleable() {
			leafImp += cr.Residual.ImportKWh
			leafExp += cr.Residual.ExportKWh
		}
	}
	const eps = 1e-9
	if math.Abs(leafImp-res.Tiers.MatchedKWh-res.Settlement.Fleet.ImportKWh) > eps {
		t.Errorf("import not conserved: leaves %v, matched %v, tariff %v",
			leafImp, res.Tiers.MatchedKWh, res.Settlement.Fleet.ImportKWh)
	}
	if math.Abs(leafExp-res.Tiers.MatchedKWh-res.Settlement.Fleet.ExportKWh) > eps {
		t.Errorf("export not conserved: leaves %v, matched %v, tariff %v",
			leafExp, res.Tiers.MatchedKWh, res.Settlement.Fleet.ExportKWh)
	}
}

// TestStreamMatchesRun is the streaming determinism guarantee: a seeded
// Stream delivers the same per-coalition outcomes — ledger chain heads,
// residuals, traffic — in partition order and folds to the same settlement
// as the batch Run, at any sink consumption speed and coalition
// concurrency; and the streamed result retains no per-coalition payload.
func TestStreamMatchesRun(t *testing.T) {
	tr := testFleet(t, 3, 3, 2)
	parts, err := Partition(StrategyFixed, tr.Homes, 4, 0) // sizes 3,2,2,2: tail folds
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	cfg := Config{Engine: testEngineConfig(37)}

	batch, err := Run(ctx, cfg, tr, parts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]coalitionDigest, len(batch.Coalitions))
	for i := range batch.Coalitions {
		want[i] = digest(&batch.Coalitions[i])
	}

	delays := map[string]func(int) time.Duration{
		"instant": func(int) time.Duration { return 0 },
		"slow":    func(int) time.Duration { return 5 * time.Millisecond },
		"ragged":  func(i int) time.Duration { return time.Duration(i%3) * 3 * time.Millisecond },
	}
	for name, delay := range delays {
		for _, conc := range []int{0, 1} {
			scfg := cfg
			scfg.MaxConcurrent = conc
			var got []coalitionDigest
			res, err := Stream(ctx, scfg, tr, parts, func(cr *CoalitionRun) error {
				time.Sleep(delay(len(got)))
				if !cr.Folded && (cr.Results == nil || cr.Ledger == nil) {
					t.Errorf("%s/%d: %s delivered without payload", name, conc, cr.Name)
				}
				got = append(got, digest(cr))
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, conc, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%d: %d deliveries, want %d", name, conc, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s/%d: delivery %d diverged from batch:\n%+v\nvs\n%+v", name, conc, i, got[i], want[i])
				}
			}
			if res.Coalitions != nil {
				t.Errorf("%s/%d: streamed result retained coalition payloads", name, conc)
			}
			if res.Settlement.Fleet != batch.Settlement.Fleet ||
				res.Windows != batch.Windows || res.TotalBytes != batch.TotalBytes ||
				res.TotalMessages != batch.TotalMessages {
				t.Errorf("%s/%d: streamed fold diverged from batch", name, conc)
			}
		}
	}
}

// TestStreamSinkErrorAborts: a sink error cancels the in-flight coalitions
// and surfaces as the run error.
func TestStreamSinkErrorAborts(t *testing.T) {
	tr := testFleet(t, 3, 2, 1)
	parts, err := Partition(StrategyFixed, tr.Homes, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	boom := errors.New("sink full")
	calls := 0
	_, err = Stream(ctx, Config{Engine: testEngineConfig(39), MinCoalition: 2, MaxConcurrent: 1}, tr, parts,
		func(cr *CoalitionRun) error {
			calls++
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if calls != 1 {
		t.Errorf("sink called %d times after aborting, want 1", calls)
	}
}

// TestStreamLiveMatchesRunLive: the live-grid streaming variant delivers
// every epoch's settlement and folds to the same positions and conservation
// figures as the batch RunLive, with no epochs retained on the result.
func TestStreamLiveMatchesRunLive(t *testing.T) {
	evo := testEvolution(t, 3, dataset.ChurnConfig{JoinRate: 0.2, DepartRate: 0.15})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	batch, err := RunLive(ctx, testLiveConfig(41, 0), evo)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testLiveConfig(41, 0)
	type epochDigest struct {
		Epoch   int
		Agents  int
		Windows int
		Fleet   market.CoalitionSettlement
	}
	var got []epochDigest
	res, err := StreamLive(ctx, cfg, evo, func(er *EpochResult) error {
		time.Sleep(2 * time.Millisecond)
		got = append(got, epochDigest{er.Epoch, er.Agents, er.Windows, er.Settlement.Fleet})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != nil {
		t.Error("streamed live result retained epochs")
	}
	if len(got) != len(batch.Epochs) {
		t.Fatalf("%d epoch deliveries, want %d", len(got), len(batch.Epochs))
	}
	for i, er := range batch.Epochs {
		want := epochDigest{er.Epoch, er.Agents, er.Windows, er.Settlement.Fleet}
		if got[i] != want {
			t.Errorf("epoch %d diverged:\n%+v\nvs\n%+v", i, got[i], want)
		}
	}
	if len(res.Positions) != len(batch.Positions) {
		t.Fatal("position counts diverged")
	}
	for i := range res.Positions {
		if res.Positions[i] != batch.Positions[i] {
			t.Errorf("position %s diverged", res.Positions[i].ID)
		}
	}
	if res.EnergyImbalanceKWh != batch.EnergyImbalanceKWh ||
		res.PaymentImbalanceCents != batch.PaymentImbalanceCents ||
		res.Windows != batch.Windows || res.TotalBytes != batch.TotalBytes {
		t.Error("streamed live fold diverged from batch")
	}
	if _, err := StreamLive(ctx, cfg, evo, nil); err == nil {
		t.Error("nil sink accepted")
	}
}

// TestLivePayloadRelease is the memory regression test for the epoch layer:
// StreamLive's sink sees each epoch's full per-coalition payload, and the
// payload is released once the sink returns; RunLive keeps it. The payloads
// are real, reclaimable memory, verified with runtime.ReadMemStats.
func TestLivePayloadRelease(t *testing.T) {
	evo := testEvolution(t, 3, dataset.ChurnConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	// Streamed: full in the sink, released after it. Light aggregates survive.
	cfg := testLiveConfig(43, 0)
	var seen []*EpochResult
	_, err := StreamLive(ctx, cfg, evo, func(er *EpochResult) error {
		for _, cr := range er.Coalitions {
			if !cr.Folded && (cr.Results == nil || cr.Flows == nil || cr.Ledger == nil) {
				t.Errorf("epoch %d: sink saw %s without its payload", er.Epoch, cr.Name)
			}
		}
		seen = append(seen, er)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range seen {
		for _, cr := range er.Coalitions {
			if cr.Results != nil || cr.Flows != nil || cr.Ledger != nil || cr.Members != nil || cr.IDs != nil {
				t.Fatalf("%s kept its heavy payload after the sink returned", cr.Name)
			}
			if !cr.Folded {
				if cr.Windows == 0 || cr.ChainHead == "" {
					t.Errorf("%s lost its light aggregates: windows=%d head=%q", cr.Name, cr.Windows, cr.ChainHead)
				}
			}
		}
	}

	// Run keeps: the payloads exist, and releasing them frees measurable
	// heap — the regression guard that they never become dark, unreachable-
	// but-held memory again.
	retained, err := RunLive(ctx, cfg, evo)
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range retained.Epochs {
		for _, cr := range er.Coalitions {
			if !cr.Folded && (cr.Results == nil || cr.Flows == nil || cr.Ledger == nil) {
				t.Fatalf("epoch %d: RunLive dropped %s's payload", er.Epoch, cr.Name)
			}
		}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for e := range retained.Epochs {
		for i := range retained.Epochs[e].Coalitions {
			retained.Epochs[e].Coalitions[i].releasePayload()
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	after := ms.HeapAlloc
	runtime.KeepAlive(retained)
	if after >= before {
		t.Errorf("releasing retained payloads freed no heap: %d -> %d bytes", before, after)
	}
}
