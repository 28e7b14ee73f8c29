package grid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/store"
	"github.com/pem-go/pem/internal/transport"
)

func testEvolution(t *testing.T, epochs int, churn dataset.ChurnConfig) *dataset.Evolution {
	t.Helper()
	churn.Epochs = epochs
	evo, err := dataset.Evolve(dataset.FleetConfig{
		Coalitions:        3,
		HomesPerCoalition: 3,
		Windows:           2,
		Seed:              1234,
	}, churn)
	if err != nil {
		t.Fatal(err)
	}
	return evo
}

func testLiveConfig(seed int64, conc int) LiveConfig {
	return LiveConfig{
		Grid:       Config{Engine: testEngineConfig(seed), MaxConcurrent: conc},
		Coalitions: 3,
		Partition:  StrategyBalanced,
	}
}

// TestLiveDeterministicAcrossConcurrency is the headline guarantee of the
// epoch layer: a seeded live grid produces bit-identical per-(epoch,
// coalition) outcomes and identical cumulative positions whether the
// coalition-days run one at a time or all at once.
func TestLiveDeterministicAcrossConcurrency(t *testing.T) {
	evo := testEvolution(t, 3, dataset.ChurnConfig{JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	var base *LiveResult
	for _, conc := range []int{1, 2, 4} {
		res, err := RunLive(ctx, testLiveConfig(5, conc), evo, nil)
		if err != nil {
			t.Fatalf("concurrency %d: %v", conc, err)
		}
		if len(res.Epochs) != 3 {
			t.Fatalf("concurrency %d: %d epochs", conc, len(res.Epochs))
		}
		if base == nil {
			base = res
			continue
		}
		for e := range res.Epochs {
			a, b := base.Epochs[e], res.Epochs[e]
			if len(a.Coalitions) != len(b.Coalitions) {
				t.Fatalf("concurrency %d epoch %d: coalition counts diverge", conc, e)
			}
			for i := range a.Coalitions {
				ca, cb := a.Coalitions[i], b.Coalitions[i]
				if ca.Name != cb.Name || ca.Folded != cb.Folded || len(ca.Results) != len(cb.Results) {
					t.Fatalf("concurrency %d epoch %d coalition %d diverged structurally", conc, e, i)
				}
				for w := range ca.Results {
					ra, rb := ca.Results[w], cb.Results[w]
					if ra.Kind != rb.Kind || ra.Price != rb.Price || ra.PHat != rb.PHat ||
						ra.SellerCount != rb.SellerCount || ra.BuyerCount != rb.BuyerCount ||
						ra.BytesOnWire != rb.BytesOnWire || len(ra.Trades) != len(rb.Trades) {
						t.Fatalf("concurrency %d: epoch %d coalition %s window %d diverged:\n%+v\nvs\n%+v",
							conc, e, ca.Name, w, ra, rb)
					}
					for k := range ra.Trades {
						if ra.Trades[k] != rb.Trades[k] {
							t.Fatalf("concurrency %d: epoch %d coalition %s window %d trade %d diverged", conc, e, ca.Name, w, k)
						}
					}
				}
			}
		}
		if len(base.Positions) != len(res.Positions) {
			t.Fatalf("concurrency %d: position counts diverge", conc)
		}
		for i := range base.Positions {
			if base.Positions[i] != res.Positions[i] {
				t.Fatalf("concurrency %d: position %s diverged:\n%+v\nvs\n%+v",
					conc, base.Positions[i].ID, base.Positions[i], res.Positions[i])
			}
		}
	}
}

// TestLiveRekeying: every epoch provisions fresh engines under fresh
// transport scopes — re-key cost is accounted separately from trading, and
// each (epoch, coalition) scope carries its own traffic. (Which keys an
// epoch reuses and which it generates: TestLiveKeyContinuity.)
func TestLiveRekeying(t *testing.T) {
	evo := testEvolution(t, 2, dataset.ChurnConfig{JoinRate: 0.2, DepartRate: 0.1})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := RunLive(ctx, testLiveConfig(13, 0), evo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rekey <= 0 || res.Trading <= 0 {
		t.Fatalf("phase accounting missing: rekey %v, trading %v", res.Rekey, res.Trading)
	}
	seen := make(map[string]bool)
	for e, er := range res.Epochs {
		if er.Rekey <= 0 {
			t.Errorf("epoch %d reports no re-key cost", e)
		}
		for _, cr := range er.Coalitions {
			if cr.Err != nil {
				continue
			}
			if seen[cr.Name] {
				t.Errorf("scope %s reused across epochs", cr.Name)
			}
			seen[cr.Name] = true
			if cr.Bytes <= 0 {
				t.Errorf("coalition %s accounted no traffic", cr.Name)
			}
			if cr.Rekey <= 0 {
				t.Errorf("coalition %s accounted no re-key time", cr.Name)
			}
		}
	}
}

// TestLiveConservationAcrossChurn is the cross-epoch settlement property:
// under every churn mix, fleet-wide PEM energy and payments balance to
// zero across epochs, the cumulative grid legs reconcile with the per-epoch
// settlements, and a departed agent's position is frozen at its exit epoch.
func TestLiveConservationAcrossChurn(t *testing.T) {
	mixes := map[string]dataset.ChurnConfig{
		"join-only":   {JoinRate: 0.4},
		"depart-only": {DepartRate: 0.3},
		"fail-heavy":  {FailRate: 0.35, JoinRate: 0.1},
		"mixed":       {JoinRate: 0.25, DepartRate: 0.2, FailRate: 0.15},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Second)
	defer cancel()
	for name, churn := range mixes {
		t.Run(name, func(t *testing.T) {
			evo := testEvolution(t, 3, churn)
			res, err := RunLive(ctx, testLiveConfig(31, 0), evo, nil)
			if err != nil {
				t.Fatal(err)
			}

			// PEM-internal conservation: what sellers sold, buyers bought;
			// what buyers paid, sellers earned.
			if math.Abs(res.EnergyImbalanceKWh) > 1e-9 {
				t.Errorf("PEM energy imbalance %v kWh", res.EnergyImbalanceKWh)
			}
			if math.Abs(res.PaymentImbalanceCents) > 1e-6 {
				t.Errorf("PEM payment imbalance %v cents", res.PaymentImbalanceCents)
			}

			// Grid legs reconcile: the sum of per-agent cumulative grid
			// flows equals the sum of the per-epoch settlements.
			var posImp, posExp, setImp, setExp float64
			for _, p := range res.Positions {
				posImp += p.Flows.GridImportKWh
				posExp += p.Flows.GridExportKWh
			}
			for _, er := range res.Epochs {
				if er.Settlement == nil {
					t.Fatalf("epoch %d has no settlement", er.Epoch)
				}
				setImp += er.Settlement.Fleet.ImportKWh
				setExp += er.Settlement.Fleet.ExportKWh
			}
			if math.Abs(posImp-setImp) > 1e-6 || math.Abs(posExp-setExp) > 1e-6 {
				t.Errorf("grid legs diverge: positions import/export %v/%v, settlements %v/%v",
					posImp, posExp, setImp, setExp)
			}

			// Leavers freeze at their exit epoch; survivors stay active.
			exitEpoch := make(map[string]int)
			exitKind := make(map[string]string)
			for _, ev := range evo.Events {
				switch ev.Kind {
				case dataset.ChurnDepart, dataset.ChurnFail:
					exitEpoch[ev.ID] = ev.Epoch - 1
					exitKind[ev.ID] = string(ev.Kind)
				}
			}
			for _, p := range res.Positions {
				if want, left := exitEpoch[p.ID]; left {
					if p.Active() || p.ExitEpoch != want || p.ExitKind != exitKind[p.ID] {
						t.Errorf("leaver %s not frozen at exit: %+v (want exit epoch %d, kind %s)",
							p.ID, p, want, exitKind[p.ID])
					}
				} else if !p.Active() {
					t.Errorf("survivor %s frozen: %+v", p.ID, p)
				}
			}
		})
	}
}

// TestLiveShrinksCoalitionCount: when churn leaves fewer homes than the
// requested coalitions can fill, the epoch degrades to the largest feasible
// count instead of aborting the day.
func TestLiveShrinksCoalitionCount(t *testing.T) {
	evo, err := dataset.Evolve(dataset.FleetConfig{
		Coalitions:        1,
		HomesPerCoalition: 6,
		Windows:           1,
		Seed:              8,
	}, dataset.ChurnConfig{Epochs: 3, DepartRate: 0.4, MinHomes: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	cfg := LiveConfig{
		Grid:       Config{Engine: testEngineConfig(17), MinCoalition: 2},
		Coalitions: 3,
	}
	res, err := RunLive(ctx, cfg, evo, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e, er := range res.Epochs {
		if max := len(evo.Epochs[e].Trace.Homes) / 2; len(er.Coalitions) > max {
			t.Errorf("epoch %d: %d coalitions for %d homes", e, len(er.Coalitions), len(evo.Epochs[e].Trace.Homes))
		}
		if len(er.Coalitions) == 0 {
			t.Errorf("epoch %d ran no coalitions", e)
		}
	}
}

// TestLiveCoalitionCapRespectsFloor: degrading the coalition count must
// account for MinCoalition — 6 homes under the default floor of 3 must run
// two real 3-agent markets, not fold three 2-agent slivers to the grid.
func TestLiveCoalitionCapRespectsFloor(t *testing.T) {
	evo, err := dataset.Evolve(dataset.FleetConfig{
		Coalitions:        1,
		HomesPerCoalition: 6,
		Windows:           1,
		Seed:              3,
	}, dataset.ChurnConfig{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	cfg := LiveConfig{Grid: Config{Engine: testEngineConfig(19)}, Coalitions: 3}
	res, err := RunLive(ctx, cfg, evo, nil)
	if err != nil {
		t.Fatal(err)
	}
	er := res.Epochs[0]
	if len(er.Coalitions) != 2 {
		t.Fatalf("%d coalitions, want 2 (6 homes / floor 3)", len(er.Coalitions))
	}
	for _, cr := range er.Coalitions {
		if cr.Folded || cr.Err != nil || len(cr.Results) != 1 {
			t.Errorf("coalition %s should have run a real market: folded=%v err=%v", cr.Name, cr.Folded, cr.Err)
		}
	}
}

// TestLiveFailureKeepsCompletedEpochs: a poisoned later epoch aborts the
// simulation but the completed epochs' results and positions survive.
func TestLiveFailureKeepsCompletedEpochs(t *testing.T) {
	evo := testEvolution(t, 3, dataset.ChurnConfig{})
	evo.Epochs[1].Trace.Gen[0][0] = math.Inf(1)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	cfg := testLiveConfig(23, 0)
	cfg.Grid.MinCoalition = 2
	res, err := RunLive(ctx, cfg, evo, nil)
	if err == nil {
		t.Fatal("poisoned live grid returned nil error")
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("%d epochs recorded, want 2 (one complete, one partial)", len(res.Epochs))
	}
	if res.Epochs[0].Windows == 0 {
		t.Error("completed epoch lost its windows")
	}
	var anyFailed bool
	for _, cr := range res.Epochs[1].Coalitions {
		if cr.Err != nil && !errors.Is(cr.Err, ErrCoalitionSkipped) {
			anyFailed = true
		}
	}
	if !anyFailed {
		t.Error("failed epoch records no failing coalition")
	}
}

// TestLiveRejectsBadConfig covers the live-level validation.
func TestLiveRejectsBadConfig(t *testing.T) {
	evo := testEvolution(t, 1, dataset.ChurnConfig{})
	ctx := context.Background()
	if _, err := RunLive(ctx, LiveConfig{Grid: Config{Engine: testEngineConfig(1)}}, evo, nil); err == nil {
		t.Error("accepted zero coalitions")
	}
	cfg := testLiveConfig(1, 0)
	cfg.Partition = "zodiac"
	if _, err := RunLive(ctx, cfg, evo, nil); err == nil {
		t.Error("accepted unknown partition strategy")
	}
	if _, err := RunLive(ctx, testLiveConfig(1, 0), nil, nil); err == nil {
		t.Error("accepted nil evolution")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := RunLive(cancelled, testLiveConfig(1, 0), evo, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}
}

// TestGridIsOneEpochLiveGrid is the identity the single supervisor rests
// on: a one-shot grid is a one-epoch, churn-free live grid. Given the
// epoch-0 engine and partition seeds, Run and RunLive agree per coalition,
// bit for bit, on every outcome — window results, residual, flows, ledger
// chain head, traffic — and on the settlement, under both crypto backends,
// flat and tiered. The scope name ("c00" vs "e00-c00") is the one
// difference: it labels the residuals and rides in every message tag, so the
// live coalition's bytes exceed the one-shot's by exactly the prefix length
// per message.
func TestGridIsOneEpochLiveGrid(t *testing.T) {
	fleet := dataset.FleetConfig{Coalitions: 3, HomesPerCoalition: 3, Windows: 2, Seed: 1234}
	tr, err := dataset.GenerateFleet(fleet)
	if err != nil {
		t.Fatal(err)
	}
	evo, err := dataset.Evolve(fleet, dataset.ChurnConfig{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		seed, partSeed = int64(61), int64(7)
		coalitions     = 3
		prefix         = "e00-"
	)
	unscoped := func(name string) string { return strings.TrimPrefix(name, prefix) }
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	for _, backend := range []string{core.BackendPaillier, core.BackendHybrid} {
		for _, tiers := range [][]int{nil, {2}} {
			t.Run(fmt.Sprintf("%s/tiers=%v", backend, tiers), func(t *testing.T) {
				engine := testEngineConfig(seed)
				engine.CryptoBackend = backend
				live, err := RunLive(ctx, LiveConfig{
					Grid:          Config{Engine: engine, Tiers: tiers},
					Coalitions:    coalitions,
					Partition:     StrategyRandom,
					PartitionSeed: partSeed,
				}, evo, nil)
				if err != nil {
					t.Fatal(err)
				}
				epoch := live.Epochs[0]

				engine = testEngineConfig(dataset.DeriveSeed("grid/epoch", seed, 0))
				engine.CryptoBackend = backend
				parts, err := Partition(StrategyRandom, tr.Homes, coalitions, dataset.DeriveSeed("grid/epoch", partSeed, 0))
				if err != nil {
					t.Fatal(err)
				}
				day, err := Run(ctx, Config{Engine: engine, Tiers: tiers}, tr, parts, nil)
				if err != nil {
					t.Fatal(err)
				}

				if len(day.Coalitions) != len(epoch.Coalitions) {
					t.Fatalf("%d one-shot coalitions, %d live", len(day.Coalitions), len(epoch.Coalitions))
				}
				for i := range day.Coalitions {
					a, b := &day.Coalitions[i], &epoch.Coalitions[i]
					if a.Err != nil || b.Err != nil {
						t.Fatalf("coalition %d: one-shot err %v, live err %v", i, a.Err, b.Err)
					}
					if b.Name != prefix+a.Name || !reflect.DeepEqual(a.Members, b.Members) || !reflect.DeepEqual(a.IDs, b.IDs) {
						t.Fatalf("coalition %d: %s %v vs %s %v", i, a.Name, a.IDs, b.Name, b.IDs)
					}
					if len(a.Results) != len(b.Results) {
						t.Fatalf("%s: %d windows vs %d", a.Name, len(a.Results), len(b.Results))
					}
					for w := range a.Results {
						ra, rb := a.Results[w], b.Results[w]
						if ra.Kind != rb.Kind || ra.Price != rb.Price || ra.PHat != rb.PHat ||
							ra.Messages != rb.Messages || !reflect.DeepEqual(ra.Trades, rb.Trades) {
							t.Errorf("%s window %d diverged:\n%+v\nvs\n%+v", a.Name, w, ra, rb)
						}
					}
					rb := b.Residual
					rb.Coalition = unscoped(rb.Coalition)
					if a.Residual != rb || !reflect.DeepEqual(a.Flows, b.Flows) {
						t.Errorf("%s: residual or flows diverged: %+v vs %+v", a.Name, a.Residual, rb)
					}
					if a.ChainHead == "" || a.ChainHead != b.ChainHead || a.Windows != b.Windows || a.Msgs != b.Msgs {
						t.Errorf("%s: head %s/%s, windows %d/%d, msgs %d/%d",
							a.Name, a.ChainHead, b.ChainHead, a.Windows, b.Windows, a.Msgs, b.Msgs)
					}
					if want := a.Bytes + int64(len(prefix))*a.Msgs; b.Bytes != want {
						t.Errorf("%s: live bytes %d, want one-shot %d + %d per message = %d",
							a.Name, b.Bytes, a.Bytes, len(prefix), want)
					}
				}

				ls := *epoch.Settlement
				ls.PerCoalition = append([]market.CoalitionSettlement(nil), ls.PerCoalition...)
				for i := range ls.PerCoalition {
					ls.PerCoalition[i].Coalition = unscoped(ls.PerCoalition[i].Coalition)
				}
				if !reflect.DeepEqual(*day.Settlement, ls) {
					t.Errorf("settlement diverged:\n%+v\nvs\n%+v", *day.Settlement, ls)
				}
				if (day.Tiers == nil) != (tiers == nil) || (epoch.Tiers == nil) != (tiers == nil) {
					t.Fatalf("tiers %v: one-shot %v, live %v", tiers, day.Tiers, epoch.Tiers)
				}
				if tiers != nil && !reflect.DeepEqual(day.Tiers.Tiers, epoch.Tiers.Tiers) {
					t.Errorf("tier outcomes diverged:\n%+v\nvs\n%+v", day.Tiers.Tiers, epoch.Tiers.Tiers)
				}
				if day.Windows != epoch.Windows || day.TotalMessages != epoch.TotalMessages {
					t.Errorf("fold diverged: windows %d/%d, msgs %d/%d", day.Windows, epoch.Windows, day.TotalMessages, epoch.TotalMessages)
				}
			})
		}
	}
}

// provisionedProbe is a Store that records, on every coalition delivery,
// which of the epoch's homes have an endpoint on the shared bus. An engine
// registers its parties' endpoints in NewEngineWith and closes them in
// Close, so a home is live exactly while its coalition's engine is
// provisioned: the probe's Send to it fails with ErrUnknownParty otherwise.
type provisionedProbe struct {
	store.Store
	conn  transport.Conn
	homes []string
	live  []map[string]bool // one snapshot per delivery
}

func (p *provisionedProbe) snapshot() map[string]bool {
	live := make(map[string]bool)
	for _, id := range p.homes {
		if err := p.conn.Send(context.Background(), id, "probe", nil); !errors.Is(err, transport.ErrUnknownParty) {
			live[id] = true
		}
	}
	return live
}

func (p *provisionedProbe) PutAggregate(a store.Aggregate) error {
	p.live = append(p.live, p.snapshot())
	return p.Store.PutAggregate(a)
}

// TestLiveRekeyRespectsBudget is the regression test for the unbounded
// re-key: an epoch used to provision every coalition's engine at once, one
// goroutine each, and hold them all until the epoch ended, whatever
// MaxConcurrent said. Whenever a coalition is delivered, the engines still
// provisioned belong to later coalitions in flight — at most the budget.
func TestLiveRekeyRespectsBudget(t *testing.T) {
	evo := testEvolution(t, 2, dataset.ChurnConfig{JoinRate: 0.2})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	for _, budget := range []int{1, 2} {
		bus := transport.NewBus(nil)
		probe := &provisionedProbe{Store: tempWAL(t), conn: bus.MustRegister("probe")}
		cfg := testLiveConfig(53, budget)
		cfg.Grid.Store = probe
		infra := core.Resources{Bus: bus, Workers: paillier.NewWorkers(0), Keys: core.NewKeyRing(cfg.Grid.Engine)}
		peak := 0
		for e := range evo.Epochs {
			ef := &evo.Epochs[e]
			probe.homes, probe.live = nil, nil
			for _, h := range ef.Trace.Homes {
				probe.homes = append(probe.homes, h.ID)
			}
			er, err := runEpoch(ctx, cfg, infra, ef)
			if err != nil {
				t.Fatalf("budget %d epoch %d: %v", budget, e, err)
			}
			if len(er.Coalitions) <= budget {
				t.Fatalf("budget %d epoch %d: only %d coalitions, the bound is vacuous", budget, e, len(er.Coalitions))
			}
			// An engine is provisioned while any of its coalition's homes is live.
			for _, live := range probe.live {
				engines := 0
				for _, cr := range er.Coalitions {
					if slices.ContainsFunc(cr.IDs, func(id string) bool { return live[id] }) {
						engines++
					}
				}
				peak = max(peak, engines)
			}
			if live := probe.snapshot(); len(live) != 0 {
				t.Errorf("budget %d epoch %d: %d homes still have endpoints after the epoch", budget, e, len(live))
			}
		}
		if peak > budget {
			t.Errorf("budget %d: %d engines provisioned at once", budget, peak)
		}
	}
}
