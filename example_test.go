package pem_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"

	"github.com/pem-go/pem"
)

// ExampleClear shows the plaintext reference clearing: two sellers and a
// buyer in a general market.
func ExampleClear() {
	agents := []pem.Agent{
		{ID: "roof-a", K: 85, Epsilon: 0.9},
		{ID: "roof-b", K: 85, Epsilon: 0.9},
		{ID: "flat-c", K: 85, Epsilon: 0.9},
	}
	inputs := []pem.WindowInput{
		{Generation: 0.30, Load: 0.10}, // +0.20 kWh surplus
		{Generation: 0.20, Load: 0.10}, // +0.10 kWh surplus
		{Generation: 0.00, Load: 0.50}, // −0.50 kWh deficit
	}
	clearing, err := pem.Clear(agents, inputs, pem.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s market at %.2f cents/kWh\n", clearing.Kind, clearing.Price)
	for _, tr := range clearing.Trades {
		fmt.Printf("%s -> %s: %.2f kWh\n", tr.Seller, tr.Buyer, tr.Energy)
	}
	// Output:
	// general market at 90.33 cents/kWh
	// roof-a -> flat-c: 0.20 kWh
	// roof-b -> flat-c: 0.10 kWh
}

// ExampleNewMarket runs one fully private trading window.
func ExampleNewMarket() {
	agents := []pem.Agent{
		{ID: "seller", K: 85, Epsilon: 0.9},
		{ID: "buyer", K: 75, Epsilon: 0.85},
	}
	seed := int64(7) // deterministic for the example; omit in production
	m, err := pem.NewMarket(pem.Config{KeyBits: 256, Seed: &seed}, agents)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	res, err := m.RunWindow(context.Background(), 0, []pem.WindowInput{
		{Generation: 0.40, Load: 0.10},
		{Generation: 0.00, Load: 0.60},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s market, %d trade(s) at %.2f cents/kWh\n",
		res.Kind, len(res.Trades), res.Price)
	// Output:
	// general market, 1 trade(s) at 90.00 cents/kWh
}

// ExampleGenerateTrace synthesizes a day of smart-home data.
func ExampleGenerateTrace() {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 3, Windows: 720, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d homes x %d one-minute windows\n", len(tr.Homes), tr.Windows)
	// Output:
	// 3 homes x 720 one-minute windows
}

// ExampleMarket_RunWindows pipelines several private trading windows.
func ExampleMarket_RunWindows() {
	agents := []pem.Agent{
		{ID: "seller", K: 85, Epsilon: 0.9},
		{ID: "buyer", K: 75, Epsilon: 0.85},
	}
	seed := int64(7) // deterministic for the example; omit in production
	m, err := pem.NewMarket(pem.Config{KeyBits: 256, Seed: &seed}, agents)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	// One input slice per window; windows are numbered by index. The
	// outcomes are identical to running the windows one at a time.
	day := [][]pem.WindowInput{
		{{Generation: 0.40, Load: 0.10}, {Generation: 0.00, Load: 0.60}},
		{{Generation: 0.35, Load: 0.10}, {Generation: 0.00, Load: 0.55}},
		{{Generation: 0.30, Load: 0.10}, {Generation: 0.00, Load: 0.50}},
		{{Generation: 0.25, Load: 0.10}, {Generation: 0.00, Load: 0.45}},
	}
	results, err := m.RunWindows(context.Background(), day)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		fmt.Printf("window %d: %d trade(s) at %.2f cents/kWh\n",
			res.Window, len(res.Trades), res.Price)
	}
	// Output:
	// window 0: 1 trade(s) at 90.00 cents/kWh
	// window 1: 1 trade(s) at 90.00 cents/kWh
	// window 2: 1 trade(s) at 90.00 cents/kWh
	// window 3: 1 trade(s) at 90.33 cents/kWh
}

// ExampleNewGrid shards a fleet into coalitions that each run a private
// market concurrently, then settles their residuals against the grid.
func ExampleNewGrid() {
	fleet, err := pem.GenerateFleet(pem.FleetConfig{
		Coalitions: 2, HomesPerCoalition: 4, Windows: 3, Seed: 2020, StartHour: 16.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	seed := int64(7) // deterministic for the example; omit in production
	g, err := pem.NewGrid(pem.GridConfig{
		Market:     pem.Config{KeyBits: 256, Seed: &seed, CryptoBackend: pem.BackendHybrid},
		Coalitions: 2,
		Partition:  pem.PartitionBalanced,
	}, fleet)
	if err != nil {
		log.Fatal(err)
	}
	res, err := g.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, cr := range res.Coalitions {
		var trades int
		var kWh float64
		for _, r := range cr.Results {
			trades += len(r.Trades)
			for _, tr := range r.Trades {
				kWh += tr.Energy
			}
		}
		fmt.Printf("%s: %v, %d windows, %d trades, %.3f kWh traded privately\n", cr.Name, cr.IDs, cr.Windows, trades, kWh)
	}
	s := res.Settlement
	fmt.Printf("grid: import %.3f kWh, export %.3f kWh\n", s.Fleet.ImportKWh, s.Fleet.ExportKWh)
	// Output:
	// c00: [c00-home-001 c00-home-003 c01-home-001 c01-home-002], 3 windows, 12 trades, 0.126 kWh traded privately
	// c01: [c00-home-000 c00-home-002 c01-home-000 c01-home-003], 3 windows, 12 trades, 0.132 kWh traded privately
	// grid: import 0.000 kWh, export 0.675 kWh
}

// ExampleNewLiveGrid runs a fleet over several epochs while homes join,
// leave and fail: each epoch re-partitions the roster and re-keys only the
// joiners, and every agent's position carries across epochs.
func ExampleNewLiveGrid() {
	seed := int64(2026) // deterministic for the example; omit in production
	lg, err := pem.NewLiveGrid(pem.LiveGridConfig{
		Market:     pem.Config{KeyBits: 256, Seed: &seed, CryptoBackend: pem.BackendHybrid},
		Coalitions: 2,
		Partition:  pem.PartitionBalanced,
		Epochs:     3,
		Churn:      pem.ChurnConfig{JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.10},
	}, pem.FleetConfig{Coalitions: 2, HomesPerCoalition: 4, Windows: 3, Seed: seed, StartHour: 11})
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range lg.Events() {
		fmt.Printf("epoch %d: %s %s\n", ev.Epoch, ev.Kind, ev.ID)
	}
	res, err := lg.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, er := range res.Epochs {
		fmt.Printf("epoch %d: %d agents in %d markets, %d windows\n", er.Epoch, er.Agents, len(er.Coalitions), er.Windows)
	}
	for _, p := range res.Positions {
		if !p.Active() {
			fmt.Printf("%s left at epoch %d (%s), bought %.3f kWh, sold %.3f kWh\n",
				p.ID, p.ExitEpoch, p.ExitKind, p.Flows.BuyKWh, p.Flows.SellKWh)
		}
	}
	fmt.Println("books balance:", math.Abs(res.EnergyImbalanceKWh) < 1e-9 && math.Abs(res.PaymentImbalanceCents) < 1e-6)
	// Output:
	// epoch 1: depart c01-home-000
	// epoch 1: join e01-home-00
	// epoch 1: join e01-home-01
	// epoch 2: fail c00-home-002
	// epoch 2: fail c01-home-001
	// epoch 2: depart e01-home-01
	// epoch 2: join e02-home-00
	// epoch 2: join e02-home-01
	// epoch 2: join e02-home-02
	// epoch 0: 8 agents in 2 markets, 6 windows
	// epoch 1: 9 agents in 2 markets, 6 windows
	// epoch 2: 9 agents in 2 markets, 6 windows
	// c00-home-002 left at epoch 1 (fail), bought 0.000 kWh, sold 0.081 kWh
	// c01-home-000 left at epoch 0 (depart), bought 0.066 kWh, sold 0.000 kWh
	// c01-home-001 left at epoch 1 (fail), bought 0.125 kWh, sold 0.000 kWh
	// e01-home-01 left at epoch 1 (depart), bought 0.018 kWh, sold 0.000 kWh
	// books balance: true
}

// Example_vehicleToGrid is the paper's Section VI extension: electric
// vehicles trade as agents whose only energy is their battery, charging
// from the midday solar surplus and selling back at the evening peak.
func Example_vehicleToGrid() {
	var agents []pem.Agent
	for i := 0; i < 4; i++ {
		agents = append(agents, pem.Agent{ID: fmt.Sprintf("ev-%d", i), K: 70 + float64(10*i), Epsilon: 0.92, BatteryCapacity: 60})
	}
	for i := 0; i < 6; i++ {
		agents = append(agents, pem.Agent{ID: fmt.Sprintf("home-%d", i), K: 80 + float64(5*i), Epsilon: 0.88})
	}
	seed := int64(7) // deterministic for the example; omit in production
	m, err := pem.NewMarket(pem.Config{KeyBits: 256, Seed: &seed}, agents)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	// Per window: each EV's battery action (+ charge, − discharge) and each
	// home's generation and load.
	phases := []struct{ ev, gen, load float64 }{
		{+0.25, 0.40, 0.08}, // midday surplus: EVs charge
		{0, 0.18, 0.15},     // afternoon: EVs idle
		{-0.30, 0.02, 0.35}, // evening peak: EVs discharge
	}
	for w, ph := range phases {
		inputs := make([]pem.WindowInput, len(agents))
		for i := range inputs {
			if i < 4 {
				inputs[i] = pem.WindowInput{Battery: ph.ev}
			} else {
				inputs[i] = pem.WindowInput{Generation: ph.gen, Load: ph.load}
			}
		}
		res, err := m.RunWindow(context.Background(), w, inputs)
		if err != nil {
			log.Fatal(err)
		}
		var evBought, evSold float64
		for _, tr := range res.Trades {
			if strings.HasPrefix(tr.Buyer, "ev-") {
				evBought += tr.Energy
			}
			if strings.HasPrefix(tr.Seller, "ev-") {
				evSold += tr.Energy
			}
		}
		fmt.Printf("window %d: %s market at %.2f cents/kWh, %d sellers / %d buyers, EVs bought %.3f kWh, sold %.3f kWh\n",
			w, res.Kind, res.Price, res.SellerCount, res.BuyerCount, evBought, evSold)
	}
	fmt.Println("ledger verifies:", m.Ledger().Verify() == nil)
	// Output:
	// window 0: extreme market at 90.00 cents/kWh, 6 sellers / 4 buyers, EVs bought 1.000 kWh, sold 0.000 kWh
	// window 1: extreme market at 90.00 cents/kWh, 6 sellers / 0 buyers, EVs bought 0.000 kWh, sold 0.000 kWh
	// window 2: general market at 99.80 cents/kWh, 4 sellers / 6 buyers, EVs bought 0.000 kWh, sold 1.200 kWh
	// ledger verifies: true
}
