// Hybrid market: the same trading windows executed under the paillier
// backend (the paper's construction — homomorphic aggregation everywhere,
// garbled-circuit comparison) and under the hybrid masking fast path
// (seeded additive masking for the Protocol 2–4 sums and the
// comparison, Paillier kept only for Protocol 4's ratio step).
//
// The point of the demo: the two backends produce bit-identical market
// outcomes — same prices, same allocations, and trade ledgers that hash to
// the same chain head — roughly 5× apart in per-window
// cost. What differs is the trust anchor, not the market; see DESIGN.md
// §12 for the threat-model comparison.
//
// Run with: go run ./examples/hybrid-market
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/pem-go/pem"
)

func main() {
	trace, err := pem.GenerateTrace(pem.TraceConfig{Homes: 10, Windows: 720, Seed: 2026})
	if err != nil {
		log.Fatal(err)
	}
	// A short midday slice: both coalitions populated, full protocol stack.
	const windows = 3
	inputs := make([][]pem.WindowInput, windows)
	for w := range inputs {
		if inputs[w], err = trace.WindowInputs(trace.Windows/2 + w); err != nil {
			log.Fatal(err)
		}
	}
	seed := int64(7)

	runDay := func(backend string) ([]*pem.WindowResult, *pem.Ledger, time.Duration) {
		m, err := pem.NewMarket(pem.Config{
			KeyBits:       512,
			Seed:          &seed,
			CryptoBackend: backend,
		}, trace.Agents())
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		start := time.Now()
		results, err := m.RunWindows(ctx, inputs)
		if err != nil {
			log.Fatal(err)
		}
		return results, m.Ledger(), time.Since(start)
	}

	fmt.Println("paillier backend (the paper's construction):")
	pai, paiLedger, paiTime := runDay(pem.BackendPaillier)
	for _, res := range pai {
		fmt.Printf("  window %d: %s, %.2f cents/kWh, %d trade(s), %d bytes on wire\n",
			res.Window, res.Kind, res.Price, len(res.Trades), res.BytesOnWire)
	}

	fmt.Println("hybrid backend (masked aggregations, Paillier ratio step):")
	hyb, hybLedger, hybTime := runDay(pem.BackendHybrid)
	for _, res := range hyb {
		fmt.Printf("  window %d: %s, %.2f cents/kWh, %d trade(s), %d bytes on wire\n",
			res.Window, res.Kind, res.Price, len(res.Trades), res.BytesOnWire)
	}

	identical := len(pai) == len(hyb)
	for w := 0; identical && w < len(pai); w++ {
		identical = pai[w].Kind == hyb[w].Kind && pai[w].Price == hyb[w].Price &&
			len(pai[w].Trades) == len(hyb[w].Trades)
		for i := 0; identical && i < len(pai[w].Trades); i++ {
			identical = pai[w].Trades[i] == hyb[w].Trades[i]
		}
	}
	sameChain := paiLedger.Head().Hash == hybLedger.Head().Hash
	if err := hybLedger.Verify(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\noutcomes identical: %v   ledger chains identical: %v\n", identical, sameChain)
	fmt.Printf("paillier: %s   hybrid: %s   speedup: %.1fx (the comparison and aggregations left the hot path)\n",
		paiTime.Round(time.Millisecond), hybTime.Round(time.Millisecond),
		float64(paiTime)/float64(hybTime))
}
