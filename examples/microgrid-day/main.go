// Microgrid-day: a 200-home neighborhood trades across a full day
// (720 one-minute windows, 07:00–19:00), reproducing the shape of the
// paper's Figs. 4 and 6 on synthetic UMass-like traces, then spot-checks
// a few windows through the full cryptographic stack.
//
// Run with: go run ./examples/microgrid-day
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/pem-go/pem"
)

func main() {
	const homes = 200
	const windows = 720

	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: homes, Windows: windows, Seed: 20200425})
	if err != nil {
		log.Fatal(err)
	}
	params := pem.DefaultParams()

	ds, err := pem.SimulateDay(tr, params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== %d homes, %d windows (07:00-19:00) ===\n\n", homes, windows)

	// Fig. 4 shape: coalition churn across the day.
	fmt.Println("coalition sizes (sellers/buyers):")
	for _, w := range []int{0, 120, 240, 360, 480, 600, 719} {
		hour := 7 + w/60
		fmt.Printf("  %02d:%02d  sellers %3d   buyers %3d\n", hour, w%60, ds.SellerCount[w], ds.BuyerCount[w])
	}

	// Fig. 6(a) shape: price pinned at retail while generation is ~0,
	// inside (or clamped to) the [90,110] band midday.
	fmt.Println("\ntrading price (cents/kWh):")
	for _, w := range []int{0, 120, 240, 360, 480, 600, 719} {
		hour := 7 + w/60
		fmt.Printf("  %02d:%02d  price %6.2f  (%s market)\n", hour, w%60, ds.Price[w], ds.Kind[w])
	}

	// Fig. 6(c)/(d) aggregates.
	var pemCost, baseCost, gridPEM, gridBase float64
	for w := 0; w < ds.Windows; w++ {
		pemCost += ds.BuyerCostPEM[w]
		baseCost += ds.BuyerCostBase[w]
		gridPEM += ds.GridPEM[w]
		gridBase += ds.GridBase[w]
	}
	fmt.Printf("\nbuyer coalition day cost: %.0f cents with PEM vs %.0f without (%.1f%% saved)\n",
		pemCost, baseCost, 100*(1-pemCost/baseCost))
	fmt.Printf("grid interaction: %.1f kWh with PEM vs %.1f without (%.1f%% reduced)\n",
		gridPEM, gridBase, 100*(1-gridPEM/gridBase))

	// Fig. 6(b) shape: tracked seller utility for k = 20 vs 40.
	best := mostSellerWindows(tr)
	w20, wo20, err := pem.SellerUtilitySeries(tr, best, 20, params)
	if err != nil {
		log.Fatal(err)
	}
	w40, _, err := pem.SellerUtilitySeries(tr, best, 40, params)
	if err != nil {
		log.Fatal(err)
	}
	var sum20, sumBase20, sum40 float64
	for w := range w20 {
		sum20 += w20[w]
		sumBase20 += wo20[w]
		sum40 += w40[w]
	}
	fmt.Printf("\ntracked seller %s day utility: k=20: %.1f with PEM vs %.1f without; k=40: %.1f\n",
		tr.Homes[best].ID, sum20, sumBase20, sum40)

	// Spot-check: run three windows through the real cryptographic stack
	// on a 12-home subset — pipelined, all three in flight — and confirm
	// the private prices match the plaintext simulation.
	sub, err := tr.Subset(12)
	if err != nil {
		log.Fatal(err)
	}
	// RunWindows numbers windows by slice index, so the market's ledger
	// records the spot-checks as windows 0–2; nothing below reads it.
	m, err := pem.NewMarket(pem.Config{
		KeyBits:            512,
		MaxInflightWindows: 3,
	}, sub.Agents())
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	subSim, err := pem.SimulateDay(sub, params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nprivate spot-checks (12-home subset, 512-bit keys, 3 windows in flight):")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	spots := []int{240, 360, 480}
	inputs := make([][]pem.WindowInput, len(spots))
	for i, w := range spots {
		if inputs[i], err = sub.WindowInputs(w); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	results, err := m.RunWindows(ctx, inputs)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		w := spots[i]
		fmt.Printf("  window %3d: private price %6.2f vs plaintext %6.2f  (%d trades, %s)\n",
			w, res.Price, subSim.Price[w], len(res.Trades), res.Duration.Round(time.Millisecond))
	}
	fmt.Printf("  all three windows in %s wall-clock\n", time.Since(start).Round(time.Millisecond))
}

// mostSellerWindows picks the home that sells most often (the paper tracks
// agents that are sellers in every window of the real dataset).
func mostSellerWindows(tr *pem.Trace) int {
	best, bestCount := 0, -1
	for h := range tr.Homes {
		c := 0
		for w := 0; w < tr.Windows; w++ {
			if tr.Gen[h][w]-tr.Load[h][w]-tr.Battery[h][w] > 0 {
				c++
			}
		}
		if c > bestCount {
			best, bestCount = h, c
		}
	}
	return best
}
