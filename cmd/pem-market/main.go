// Command pem-market simulates a full trading day for a fleet of smart
// homes, optionally through the full cryptographic protocol stack.
//
//	pem-market -homes 200 -windows 720            # plaintext day summary
//	pem-market -homes 8 -windows 10 -private      # private protocol day
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pem-go/pem"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pem-market:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pem-market", flag.ContinueOnError)
	homes := fs.Int("homes", 200, "number of smart homes")
	windows := fs.Int("windows", 720, "number of one-minute trading windows")
	seed := fs.Int64("seed", 20200425, "synthetic trace seed")
	private := fs.Bool("private", false, "run the cryptographic protocols instead of the plaintext clearing")
	keyBits := fs.Int("keybits", 1024, "Paillier key size for -private")
	storePath := fs.String("store", "", "persist the -private run's ledger and key fingerprints to this WAL file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: *homes, Windows: *windows, Seed: *seed})
	if err != nil {
		return err
	}
	if *private {
		return runPrivate(tr, *keyBits, *seed, *storePath)
	}
	if *storePath != "" {
		return errors.New("-store needs -private (the plaintext simulation commits nothing)")
	}
	return runPlaintext(tr)
}

func runPlaintext(tr *pem.Trace) error {
	params := pem.DefaultParams()
	start := time.Now()
	ds, err := pem.SimulateDay(tr, params)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	var pemCost, baseCost, gridPEM, gridBase float64
	var general, extreme, degenerate, inBand int
	for w := 0; w < ds.Windows; w++ {
		pemCost += ds.BuyerCostPEM[w]
		baseCost += ds.BuyerCostBase[w]
		gridPEM += ds.GridPEM[w]
		gridBase += ds.GridBase[w]
		switch {
		case ds.SellerCount[w] == 0 || ds.BuyerCount[w] == 0:
			degenerate++
		case ds.Kind[w] == pem.ExtremeMarket:
			extreme++
		default:
			general++
		}
		if ds.Price[w] >= params.PriceFloor && ds.Price[w] <= params.PriceCeil {
			inBand++
		}
	}

	fmt.Printf("Private Energy Market — plaintext day simulation\n")
	fmt.Printf("  homes: %d   windows: %d   simulated in %s\n", len(tr.Homes), ds.Windows, elapsed.Round(time.Millisecond))
	fmt.Printf("  markets: %d general, %d extreme, %d degenerate (empty coalition)\n", general, extreme, degenerate)
	fmt.Printf("  price in band [%.0f, %.0f]: %d windows\n", params.PriceFloor, params.PriceCeil, inBand)
	fmt.Printf("  buyer coalition cost: %.0f cents with PEM vs %.0f without (%.1f%% saved)\n",
		pemCost, baseCost, 100*(1-pemCost/baseCost))
	fmt.Printf("  grid interaction: %.1f kWh with PEM vs %.1f without (%.1f%% reduced)\n",
		gridPEM, gridBase, 100*(1-gridPEM/gridBase))
	return nil
}

func runPrivate(tr *pem.Trace, keyBits int, seed int64, storePath string) error {
	cfg := pem.Config{KeyBits: keyBits, Seed: &seed}
	var wal *pem.WALStore
	if storePath != "" {
		var err error
		if wal, err = pem.OpenWAL(storePath); err != nil {
			return err
		}
		defer wal.Close()
		if rec := wal.Recovered(); rec.Truncated {
			fmt.Fprintf(os.Stderr, "pem-market: store recovery: dropped %d torn bytes, kept %d records\n",
				rec.DroppedBytes, rec.Records)
		}
		cfg.Store = wal
	}
	m, err := pem.NewMarket(cfg, tr.Agents())
	if err != nil {
		return err
	}
	defer m.Close()

	// SIGINT/SIGTERM drain rather than kill: Close stops admitting new
	// windows and lets the in-flight ones finish (dying mid-protocol would
	// discard their work), then the day run returns ErrMarketClosed, which
	// we report as a clean early exit with the completed windows' summary.
	// A second signal force-kills via the default handler.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sigCtx.Done():
			fmt.Fprintln(os.Stderr, "pem-market: signal received: draining in-flight windows (signal again to abort)")
			stopSignals()
			m.Close()
		case <-finished:
		}
	}()

	fmt.Printf("Private Energy Market — cryptographic day run\n")
	fmt.Printf("  homes: %d   windows: %d   key: %d-bit Paillier\n", len(tr.Homes), tr.Windows, keyBits)

	start := time.Now()
	var windows, trades int
	var bytesTotal int64
	_, err = m.StreamDay(context.Background(), tr, func(res *pem.WindowResult) error {
		windows++
		trades += len(res.Trades)
		bytesTotal += res.BytesOnWire
		return nil
	})
	interrupted := errors.Is(err, pem.ErrMarketClosed)
	if err != nil && !interrupted {
		return err
	}
	elapsed := time.Since(start)

	if interrupted {
		fmt.Printf("  interrupted: drained after %d of %d windows\n", windows, tr.Windows)
	}
	if windows > 0 {
		fmt.Printf("  completed %d windows in %s (%s/window average)\n",
			windows, elapsed.Round(time.Millisecond), (elapsed / time.Duration(windows)).Round(time.Millisecond))
		fmt.Printf("  pairwise trades routed: %d\n", trades)
		fmt.Printf("  protocol traffic: %.2f MB total, %.3f MB/window\n",
			float64(bytesTotal)/1e6, float64(bytesTotal)/float64(windows)/1e6)
	}
	l := m.Ledger()
	if err := l.Verify(); err != nil {
		return fmt.Errorf("ledger verification: %w", err)
	}
	fmt.Printf("  ledger: %d blocks, chain verified, head %s\n", l.Len(), headHash(l))
	if wal != nil {
		if err := wal.Sync(); err != nil {
			return err
		}
		fmt.Printf("  store: ledger and key fingerprints persisted to %s\n", wal.Path())
	}
	return nil
}

func headHash(l *pem.Ledger) string {
	h := l.Head().Hash
	return fmt.Sprintf("%x", h[:8])
}
