package grid

import (
	"context"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/netem"
)

// runTestGrid executes one grid day over the given engine config.
func runTestGrid(t *testing.T, ecfg core.Config, maxConc int) *Result {
	t.Helper()
	tr := testFleet(t, 2, 3, 2)
	parts, err := Partition(StrategyFixed, tr.Homes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{Engine: ecfg, MaxConcurrent: maxConc}, tr, parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCoalitionLedgersVerify is the settlement-path ledger wiring: every
// completed coalition carries a tamper-evident chain whose blocks mirror
// the coalition's window results, and tampering is detected.
func TestCoalitionLedgersVerify(t *testing.T) {
	res := runTestGrid(t, testEngineConfig(5), 0)
	for _, cr := range res.Coalitions {
		if cr.Err != nil {
			t.Fatalf("coalition %s failed: %v", cr.Name, cr.Err)
		}
		if cr.Ledger == nil {
			t.Fatalf("coalition %s has no ledger", cr.Name)
		}
		if err := cr.Ledger.Verify(); err != nil {
			t.Fatalf("coalition %s ledger: %v", cr.Name, err)
		}
		// Genesis + one block per window, in window order, with the
		// window's price and trade count.
		if got, want := cr.Ledger.Len(), len(cr.Results)+1; got != want {
			t.Fatalf("coalition %s chain height %d, want %d", cr.Name, got, want)
		}
		for i, wr := range cr.Results {
			blk, err := cr.Ledger.Block(i + 1)
			if err != nil {
				t.Fatal(err)
			}
			if blk.Window != wr.Window || blk.PriceCentsPerKWh != wr.Price || len(blk.Trades) != len(wr.Trades) {
				t.Errorf("coalition %s block %d = (w%d, %v, %d trades), want (w%d, %v, %d)",
					cr.Name, i+1, blk.Window, blk.PriceCentsPerKWh, len(blk.Trades),
					wr.Window, wr.Price, len(wr.Trades))
			}
		}
	}

	// Tampering with any block must break verification.
	led := res.Coalitions[0].Ledger
	if err := led.TamperForTest(1, func(b *ledger.Block) { b.PriceCentsPerKWh += 1 }); err != nil {
		t.Fatal(err)
	}
	if err := led.Verify(); err == nil {
		t.Error("tampered coalition ledger verified clean")
	}
}

// TestEpochCoalitionLedgersVerify extends the ledger wiring to the live
// grid: chain integrity holds per (epoch, coalition), and folded coalitions
// (which never trade) carry no chain.
func TestEpochCoalitionLedgersVerify(t *testing.T) {
	evo, err := dataset.Evolve(dataset.FleetConfig{
		Coalitions:        2,
		HomesPerCoalition: 3,
		Windows:           1,
		Seed:              42,
	}, dataset.ChurnConfig{Epochs: 3, JoinRate: 0.2, DepartRate: 0.15, FailRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := RunLive(ctx, LiveConfig{
		Grid:       Config{Engine: testEngineConfig(5)},
		Coalitions: 2,
	}, evo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(res.Epochs))
	}
	for _, er := range res.Epochs {
		for _, cr := range er.Coalitions {
			if cr.Folded {
				if cr.Ledger != nil {
					t.Errorf("%s: folded coalition carries a ledger", cr.Name)
				}
				continue
			}
			if cr.Err != nil {
				t.Fatalf("%s failed: %v", cr.Name, cr.Err)
			}
			if cr.Ledger == nil {
				t.Fatalf("%s has no ledger", cr.Name)
			}
			if err := cr.Ledger.Verify(); err != nil {
				t.Errorf("%s ledger: %v", cr.Name, err)
			}
			if got, want := cr.Ledger.Len(), len(cr.Results)+1; got != want {
				t.Errorf("%s chain height %d, want %d", cr.Name, got, want)
			}
		}
	}
}

// TestEmulatedGridBitIdentical: an emulated grid day reports identical
// per-coalition virtual metrics and ledger head hashes at any coalition
// concurrency — the grid-level netem determinism guarantee.
func TestEmulatedGridBitIdentical(t *testing.T) {
	ecfg := testEngineConfig(9)
	ecfg.Network = netem.TopologyMetro

	serial := runTestGrid(t, ecfg, 1)
	concurrent := runTestGrid(t, ecfg, 0)

	if len(serial.Coalitions) != len(concurrent.Coalitions) {
		t.Fatal("coalition count diverged")
	}
	for i := range serial.Coalitions {
		a, b := &serial.Coalitions[i], &concurrent.Coalitions[i]
		if a.Bytes != b.Bytes || a.Msgs != b.Msgs || a.VirtualLatency != b.VirtualLatency || a.Rounds != b.Rounds {
			t.Errorf("coalition %s metrics diverged: %d/%d/%v/%d vs %d/%d/%v/%d",
				a.Name, a.Bytes, a.Msgs, a.VirtualLatency, a.Rounds,
				b.Bytes, b.Msgs, b.VirtualLatency, b.Rounds)
		}
		if a.Ledger.Head().Hash != b.Ledger.Head().Hash {
			t.Errorf("coalition %s ledger head diverged across concurrency", a.Name)
		}
		if a.VirtualLatency == 0 || a.Rounds == 0 || a.Msgs == 0 {
			t.Errorf("coalition %s missing emulated metrics: %+v/%d/%d", a.Name, a.VirtualLatency, a.Rounds, a.Msgs)
		}
	}
	if serial.TotalMessages == 0 || serial.TotalMessages != concurrent.TotalMessages {
		t.Errorf("total messages diverged: %d vs %d", serial.TotalMessages, concurrent.TotalMessages)
	}
	if serial.VirtualLatency == 0 || serial.VirtualLatency != concurrent.VirtualLatency {
		t.Errorf("grid virtual latency diverged: %v vs %v", serial.VirtualLatency, concurrent.VirtualLatency)
	}
}
