package pem_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/pem-go/pem"
)

func testLiveGrid(t *testing.T, conc int) *pem.LiveGrid {
	t.Helper()
	lg, err := pem.NewLiveGrid(pem.LiveGridConfig{
		Market:                  pem.Config{KeyBits: 256, Seed: seedPtr(41)},
		Coalitions:              2,
		Partition:               pem.PartitionBalanced,
		MaxConcurrentCoalitions: conc,
		Epochs:                  3,
		Churn:                   pem.ChurnConfig{JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1},
	}, pem.FleetConfig{
		Coalitions:        2,
		HomesPerCoalition: 4,
		Windows:           2,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

func TestLiveGridPublicAPI(t *testing.T) {
	lg := testLiveGrid(t, 0)

	// The evolution is inspectable before any protocol runs: three epochs
	// of rosters, and every churn event refers to a real roster change.
	rosters := lg.Rosters()
	if len(rosters) != 3 {
		t.Fatalf("%d rosters, want 3", len(rosters))
	}
	onRoster := func(e int, id string) bool {
		for _, r := range rosters[e] {
			if r == id {
				return true
			}
		}
		return false
	}
	for _, ev := range lg.Events() {
		switch ev.Kind {
		case pem.ChurnJoin:
			if !onRoster(ev.Epoch, ev.ID) {
				t.Errorf("join %s missing from epoch %d roster", ev.ID, ev.Epoch)
			}
		case pem.ChurnDepart, pem.ChurnFail:
			if !onRoster(ev.Epoch-1, ev.ID) || onRoster(ev.Epoch, ev.ID) {
				t.Errorf("leaver %s roster transition broken at epoch %d", ev.ID, ev.Epoch)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := lg.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 || res.Windows == 0 {
		t.Fatalf("run shape: %d epochs, %d windows", len(res.Epochs), res.Windows)
	}
	if math.Abs(res.EnergyImbalanceKWh) > 1e-9 || math.Abs(res.PaymentImbalanceCents) > 1e-6 {
		t.Errorf("conservation violated: energy %v kWh, payments %v cents",
			res.EnergyImbalanceKWh, res.PaymentImbalanceCents)
	}
	if perSec := float64(res.Windows) / res.Trading.Seconds(); res.Rekey <= 0 || !(perSec > 0) {
		t.Errorf("throughput accounting missing: rekey %v, windows/sec %v", res.Rekey, perSec)
	}

	// Every agent that ever traded has a position; leavers are frozen.
	byID := make(map[string]pem.AgentPosition, len(res.Positions))
	for _, p := range res.Positions {
		byID[p.ID] = p
	}
	for _, ev := range lg.Events() {
		p, ok := byID[ev.ID]
		if !ok {
			t.Errorf("no position for churned agent %s", ev.ID)
			continue
		}
		if ev.Kind == pem.ChurnDepart || ev.Kind == pem.ChurnFail {
			if p.Active() || p.ExitEpoch != ev.Epoch-1 {
				t.Errorf("leaver %s not frozen at epoch %d: %+v", ev.ID, ev.Epoch-1, p)
			}
		}
	}
}

// TestLiveGridDeterministicAcrossConcurrency: the public API inherits the
// epoch layer's guarantee — bit-identical positions and epoch outcomes at
// any coalition concurrency.
func TestLiveGridDeterministicAcrossConcurrency(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	a, err := testLiveGrid(t, 1).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testLiveGrid(t, 4).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Positions) != len(b.Positions) {
		t.Fatalf("position counts diverge: %d vs %d", len(a.Positions), len(b.Positions))
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("position %s diverged:\n%+v\nvs\n%+v", a.Positions[i].ID, a.Positions[i], b.Positions[i])
		}
	}
	for e := range a.Epochs {
		if a.Epochs[e].Windows != b.Epochs[e].Windows || a.Epochs[e].TotalBytes != b.Epochs[e].TotalBytes {
			t.Fatalf("epoch %d diverged across concurrency", e)
		}
	}
}

func TestLiveGridRejectsBadConfig(t *testing.T) {
	fleet := pem.FleetConfig{Coalitions: 1, HomesPerCoalition: 4, Windows: 1, Seed: 1}
	if _, err := pem.NewLiveGrid(pem.LiveGridConfig{Epochs: 2, Coalitions: 0}, fleet); err == nil {
		t.Error("accepted zero coalitions")
	}
	if _, err := pem.NewLiveGrid(pem.LiveGridConfig{Epochs: 0, Coalitions: 2}, fleet); err == nil {
		t.Error("accepted zero epochs")
	}
	bad := pem.LiveGridConfig{Epochs: 2, Coalitions: 2, Churn: pem.ChurnConfig{DepartRate: 0.7, FailRate: 0.5}}
	if _, err := pem.NewLiveGrid(bad, fleet); err == nil {
		t.Error("accepted churn rates with no survivors")
	}
	// Churn.Epochs is taken from Epochs: 0 or equal, never overwritten.
	if _, err := pem.NewLiveGrid(pem.LiveGridConfig{Epochs: 2, Coalitions: 1, Churn: pem.ChurnConfig{Epochs: 2}}, fleet); err != nil {
		t.Errorf("refused a Churn.Epochs equal to Epochs: %v", err)
	}
	disagree := pem.LiveGridConfig{Epochs: 2, Coalitions: 1, Churn: pem.ChurnConfig{Epochs: 5}}
	if _, err := pem.NewLiveGrid(disagree, fleet); err == nil || !strings.Contains(err.Error(), "Churn.Epochs 5") || !strings.Contains(err.Error(), "Epochs 2") {
		t.Errorf("Churn.Epochs 5 under Epochs 2: error %v, want one naming both", err)
	}
	// Statically-bad grid config fails at construction, not at Run.
	if _, err := pem.NewLiveGrid(pem.LiveGridConfig{Epochs: 2, Coalitions: 2, Partition: "zodiac"}, fleet); err == nil {
		t.Error("accepted unknown partition strategy")
	}
	neg := pem.LiveGridConfig{Epochs: 2, Coalitions: 2, MaxConcurrentCoalitions: -1}
	if _, err := pem.NewLiveGrid(neg, fleet); err == nil {
		t.Error("accepted negative coalition budget")
	}
}

// TestLiveGridStreamPublicAPI: the live streaming variant delivers each
// epoch in order with its settlement, retains no epochs on the result, and
// folds to the same positions as the batch Run; Run keeps every epoch's
// heavy per-coalition payload, and Stream releases each once its sink returns.
func TestLiveGridStreamPublicAPI(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	batch, err := testLiveGrid(t, 0).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range batch.Epochs {
		for _, cr := range er.Coalitions {
			if cr.Err == nil && (cr.Results == nil || cr.Ledger == nil || cr.Flows == nil) {
				t.Errorf("%s: Run dropped its payload", cr.Name)
			}
		}
	}

	var epochs []int
	var delivered []*pem.EpochResult
	streamed, err := testLiveGrid(t, 0).Stream(ctx, func(er *pem.EpochResult) error {
		if er.Settlement == nil {
			t.Errorf("epoch %d streamed without settlement", er.Epoch)
		}
		epochs = append(epochs, er.Epoch)
		delivered = append(delivered, er)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 || epochs[0] != 0 || epochs[2] != 2 {
		t.Fatalf("stream epochs %v, want [0 1 2]", epochs)
	}
	if streamed.Epochs != nil {
		t.Error("streamed live result retained epochs")
	}
	for _, er := range delivered {
		for _, cr := range er.Coalitions {
			if cr.Results != nil || cr.Ledger != nil || cr.Flows != nil {
				t.Errorf("%s kept its heavy payload after the sink returned", cr.Name)
			}
		}
	}
	if len(streamed.Positions) != len(batch.Positions) {
		t.Fatal("position counts diverged")
	}
	for i := range streamed.Positions {
		if streamed.Positions[i] != batch.Positions[i] {
			t.Errorf("position %s diverged", streamed.Positions[i].ID)
		}
	}
	if _, err := testLiveGrid(t, 0).Stream(ctx, nil); err == nil {
		t.Error("nil sink accepted")
	}
}
