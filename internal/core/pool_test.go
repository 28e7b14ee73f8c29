package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
)

// TestPoolStockFollowsDemand runs a seeded 32-window day window by window on
// both backends and holds every key's blinding-factor pool to the fill
// policy: nothing is computed in the background that was not taken or is not
// in stock, a key's stock never exceeds the most factors one window took
// from it — measured here, from outside, as the largest per-window rise of
// its take counters — a key nobody encrypted under has nothing, and closing
// the engine leaves no goroutine behind. It also counts the factors a window
// costs, key by key: on paillier one per member of each of Protocol 2's two
// sums, of Protocol 3's and of Protocol 4's (d of them under Hs's key); on
// hybrid exactly two, both under Hs's key — its unmasking ciphertext and the
// aggregation root's total — so no key stocks more than two.
func TestPoolStockFollowsDemand(t *testing.T) {
	tr, err := dataset.Generate(dataset.Config{Homes: 8, Windows: 32, Seed: 17, StartHour: 15})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	for _, backend := range []string{BackendPaillier, BackendHybrid} {
		t.Run(backend, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := testConfig(29)
			cfg.CryptoBackend = backend
			eng, err := NewEngine(cfg, tr.Agents())
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			peak := make([]uint64, len(eng.parties)) // largest single-window demand per key
			last := make([]uint64, len(eng.parties))
			var protocolWindows int
			for w := 0; w < tr.Windows; w++ {
				inputs, err := tr.WindowInputs(w)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.RunWindow(ctx, w, inputs)
				if err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
				want := make(map[string]uint64) // factors this window takes, by key holder
				if !res.Degenerate {
					protocolWindows++
					var sellers, buyers []string
					for i, in := range inputs {
						switch market.ClassifyRole(in.NetEnergy()) {
						case market.RoleSeller:
							sellers = append(sellers, eng.parties[i].ID())
						case market.RoleBuyer:
							buyers = append(buyers, eng.parties[i].ID())
						}
					}
					ros := buildRoster(w, nil, sellers, buyers)
					demand, supply := buyers, sellers
					if res.Kind == market.ExtremeMarket {
						demand, supply = sellers, buyers
					}
					hs := supply[publicCoin(w, "hs", sellers, buyers, len(supply))]
					if backend == BackendHybrid {
						want[hs] = 2
					} else {
						want[ros.hr1] += uint64(len(sellers) + len(buyers) - 1)
						want[ros.hr2] += uint64(len(sellers) + len(buyers) - 1)
						if res.Kind == market.GeneralMarket {
							want[ros.hb] += uint64(len(sellers))
						}
						want[hs] += uint64(len(demand))
					}
				}
				for i, p := range eng.parties {
					st := p.key.Pool().Stats()
					taken := st.Hits + st.Misses
					if taken-last[i] != want[p.ID()] {
						t.Fatalf("window %d (%v, %d sellers, %d buyers): %d factors taken under %s's key, want %d",
							w, res.Kind, res.SellerCount, res.BuyerCount, taken-last[i], p.ID(), want[p.ID()])
					}
					peak[i] = max(peak[i], taken-last[i])
					last[i] = taken
					if st.Ready > st.Target || uint64(st.Target) > peak[i] || (backend == BackendHybrid && st.Target > 2) {
						t.Fatalf("window %d key %s: stock %d, target %d, largest single-window demand %d",
							w, p.ID(), st.Ready, st.Target, peak[i])
					}
				}
			}
			if protocolWindows < tr.Windows/2 {
				t.Fatalf("only %d of %d windows ran the protocols: the fixture proves little", protocolWindows, tr.Windows)
			}

			var total paillier.PoolStats
			var idle int
			for i, p := range eng.parties {
				st := p.key.Pool().Stats()
				total.Add(st)
				if last[i] == 0 {
					idle++
					if st != (paillier.PoolStats{}) {
						t.Errorf("nobody encrypted under %s, yet its pool reads %+v", p.ID(), st)
					}
				}
			}
			if total != eng.PoolStats() {
				t.Errorf("Engine.PoolStats %+v is not the sum over keys %+v", eng.PoolStats(), total)
			}
			if total.Hits == 0 {
				t.Errorf("no take was ever served from stock: %+v", total)
			}
			// computed = background + inline ≤ taken + stock.
			if total.IdleRefills > total.Hits+uint64(total.Ready) {
				t.Errorf("%d factors computed in the background, %d taken from stock + %d in stock", total.IdleRefills, total.Hits, total.Ready)
			}
			t.Logf("%s: %d keys idle, %+v", backend, idle, total)

			eng.Close()
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked past Engine.Close: %d before the engine, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
