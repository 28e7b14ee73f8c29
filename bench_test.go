// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VII) at laptop scale, plus ablations of the design choices
// called out in DESIGN.md §6. cmd/pem-bench prints the full series at
// paper scale; these benches measure the same code paths under `go test
// -bench`. Scale factors are deliberately small so the whole suite
// completes in minutes — EXPERIMENTS.md records the paper-scale numbers.
package pem_test

import (
	"context"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/paillier"
)

// benchTrace memoizes one synthetic day per (homes, windows).
var benchTraces = map[string]*pem.Trace{}

func benchTrace(b *testing.B, homes, windows int) *pem.Trace {
	b.Helper()
	key := fmt.Sprintf("%d/%d", homes, windows)
	if tr, ok := benchTraces[key]; ok {
		return tr
	}
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: homes, Windows: windows, Seed: 20200425})
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[key] = tr
	return tr
}

// --- Fig. 4: coalition sizes vs trading windows (200 homes, 720 windows) ---

func BenchmarkFig4CoalitionSizes(b *testing.B) {
	tr := benchTrace(b, 200, 720)
	params := pem.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := pem.SimulateDay(tr, params)
		if err != nil {
			b.Fatal(err)
		}
		var peakSellers int
		for _, s := range ds.SellerCount {
			if s > peakSellers {
				peakSellers = s
			}
		}
		b.ReportMetric(float64(peakSellers), "peak-sellers")
	}
}

// --- Fig. 5(a): average runtime per window vs number of agents ---
//
// The paper fixes 2048-bit keys and sweeps n ∈ {100, 200, 300}; here the
// sweep is n ∈ {8, 16, 24} at 512 bits so the bench stays in seconds.
// cmd/pem-bench -fig 5a -full runs the paper scale.

func BenchmarkFig5aRuntimePerWindow(b *testing.B) {
	for _, n := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("agents=%d", n), func(b *testing.B) {
			benchPrivateWindows(b, n, 512)
		})
	}
}

// --- Fig. 5(b): runtime vs key size (pre-encryption hides the key cost) ---

func BenchmarkFig5bRuntimeByKeySize(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprintf("key=%d", bits), func(b *testing.B) {
			benchPrivateWindows(b, 8, bits)
		})
	}
}

// --- Fig. 5(c): runtime vs agents at several key sizes ---

func BenchmarkFig5cRuntimeByAgents(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		for _, n := range []int{8, 16} {
			b.Run(fmt.Sprintf("key=%d/agents=%d", bits, n), func(b *testing.B) {
				benchPrivateWindows(b, n, bits)
			})
		}
	}
}

// benchPrivateWindows measures full private trading windows.
func benchPrivateWindows(b *testing.B, agents, keyBits int) {
	b.Helper()
	tr := benchTrace(b, agents, 720)
	seed := int64(7)
	m, err := pem.NewMarket(pem.Config{KeyBits: keyBits, Seed: &seed}, tr.Agents())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()

	// Midday window: both coalitions populated.
	inputs, err := tr.WindowInputs(tr.Windows / 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunWindow(ctx, i, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pipelined window scheduler: sequential vs concurrent windows ---
//
// The paper executes one trading window at a time; the scheduler overlaps
// up to MaxInflightWindows independent protocol instances. Each window's
// ring aggregations serialize its parties, so a single window cannot
// saturate a multi-core host — pipelining recovers that idle time. On a
// multi-core machine inflight=4 runs the same day at least 2x faster than
// inflight=1; outcomes are bit-identical at any depth (asserted by
// TestRunWindowsPipelinedBitIdentical).

func BenchmarkPipelinedDay(b *testing.B) {
	tr := benchTrace(b, 8, 720)
	// A slice of midday windows: both coalitions populated, full protocol
	// stack per window.
	const windows = 8
	inputs := make([][]pem.WindowInput, windows)
	for w := 0; w < windows; w++ {
		var err error
		if inputs[w], err = tr.WindowInputs(720/2 - windows/2 + w); err != nil {
			b.Fatal(err)
		}
	}
	for _, inflight := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			seed := int64(15)
			m, err := pem.NewMarket(pem.Config{
				KeyBits:            512,
				Seed:               &seed,
				MaxInflightWindows: inflight,
			}, tr.Agents())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunWindows(ctx, inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(windows), "windows/op")
		})
	}
}

// --- Sharded coalition grid: coalition-count sweep ---
//
// Pipelining overlaps windows of one market; the grid overlaps whole
// coalition markets: the fleet is partitioned into k coalitions that trade
// concurrently over one shared bus and one bounded crypto pool, and their
// residuals settle against the grid. Aggregate windows/sec scales with the
// coalition count — the single-roster ring serializes its parties, while k
// small rings run k windows at once. Outcomes per coalition are
// bit-identical at any coalition concurrency (asserted by
// TestGridBitIdenticalAcrossConcurrency).

func BenchmarkCoalitionGrid(b *testing.B) {
	fleet, err := pem.GenerateFleet(pem.FleetConfig{
		Coalitions:        4,
		HomesPerCoalition: 4,
		Windows:           2,
		Seed:              20200425,
		StartHour:         11,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, coalitions := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("coalitions=%d", coalitions), func(b *testing.B) {
			seed := int64(15)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var perSec float64
			for i := 0; i < b.N; i++ {
				g, err := pem.NewGrid(pem.GridConfig{
					Market:                  pem.Config{KeyBits: 512, Seed: &seed},
					Coalitions:              coalitions,
					Partition:               pem.PartitionBalanced,
					MaxConcurrentCoalitions: coalitions,
				}, fleet)
				if err != nil {
					b.Fatal(err)
				}
				res, err := g.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
				perSec = res.WindowsPerSec
			}
			b.ReportMetric(perSec, "windows/sec")
		})
	}
}

// BenchmarkLiveGrid measures the epoched live grid under churn: several
// consecutive trading days over one evolving fleet, with per-epoch
// re-partitioning and coalition re-keying over the shared crypto pool. The
// reported windows/sec is steady-state throughput (re-key time excluded);
// rekey-ms/epoch surfaces the churn cost separately.
func BenchmarkLiveGrid(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	var res *pem.LiveGridResult
	for i := 0; i < b.N; i++ {
		seed := int64(15)
		lg, err := pem.NewLiveGrid(pem.LiveGridConfig{
			Market:     pem.Config{KeyBits: 512, Seed: &seed},
			Coalitions: 2,
			Partition:  pem.PartitionBalanced,
			Epochs:     3,
			Churn:      pem.ChurnConfig{JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1},
		}, pem.FleetConfig{
			Coalitions:        2,
			HomesPerCoalition: 4,
			Windows:           2,
			Seed:              20200425,
			StartHour:         11,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res, err = lg.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WindowsPerSec, "windows/sec")
	b.ReportMetric(float64(res.Rekey.Milliseconds())/float64(len(res.Epochs)), "rekey-ms/epoch")
}

// --- Network emulation: communication cost on virtual WAN links ---
//
// BenchmarkNetEm runs the full protocol window over the deterministic
// network-emulation layer. The virtual clock is event-driven — no
// wall-clock sleeps — so the wan and cellular cases run at the same real
// speed as lan while reporting seconds of virtual critical-path latency;
// virt-ms/window and rounds surface both. Tree aggregation cuts the round
// count on every topology (asserted by TestTreeBeatsRingOnWAN in
// internal/core).
func BenchmarkNetEm(b *testing.B) {
	for _, network := range []string{pem.NetworkLAN, pem.NetworkWAN, pem.NetworkCellular} {
		for _, agg := range []string{pem.AggregationRing, pem.AggregationTree} {
			b.Run(fmt.Sprintf("net=%s/agg=%s", network, agg), func(b *testing.B) {
				tr := benchTrace(b, 12, 720)
				seed := int64(23)
				m, err := pem.NewMarket(pem.Config{
					KeyBits:     512,
					Seed:        &seed,
					Aggregation: agg,
					Network:     network,
				}, tr.Agents())
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				ctx := context.Background()
				inputs, err := tr.WindowInputs(tr.Windows / 2)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var res *pem.WindowResult
				for i := 0; i < b.N; i++ {
					if res, err = m.RunWindow(ctx, i, inputs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.VirtualLatency.Milliseconds()), "virt-ms/window")
				b.ReportMetric(float64(res.Rounds), "rounds")
				b.ReportMetric(float64(res.Messages), "msgs/window")
			})
		}
	}
}

// --- Intra-window parallel crypto engine: worker-count sweep ---
//
// Pipelining (above) overlaps whole windows; the parallel engine speeds up
// a single window: Hs drains the Protocol 4 masked ciphertexts in arrival
// order and decrypts them across the shared worker pool, broadcasts fan
// out concurrently, and the pairwise routeAndPay exchanges run per peer.
// On a multi-core host the 32-agent window runs ≥ 2x faster at 8 crypto
// workers than at 1; outcomes are bit-identical at any worker count
// (asserted by TestRunWindowParallelCryptoBitIdentical).

func BenchmarkParallelWindow(b *testing.B) {
	for _, agents := range []int{8, 16, 32, 64} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("agents=%d/workers=%d", agents, workers), func(b *testing.B) {
				tr := benchTrace(b, agents, 720)
				seed := int64(17)
				m, err := pem.NewMarket(pem.Config{
					KeyBits:       512,
					Seed:          &seed,
					CryptoWorkers: workers,
				}, tr.Agents())
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				ctx := context.Background()
				inputs, err := tr.WindowInputs(tr.Windows / 2)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.RunWindow(ctx, i, inputs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablation: paillier vs hybrid crypto backend, full protocol stack ---
//
// The hybrid backend computes the Protocol 2–4 sums and the comparison
// over seeded additive masking and keeps Paillier only for Protocol 4's
// ratio step; outcomes are bit-identical to the paillier backend (asserted
// by TestHybridPublicBitIdentical). The per-window speedup is the headline
// of cmd/pem-bench -fig crypto; this bench keeps it measurable under
// `go test -bench`.

func BenchmarkCryptoBackends(b *testing.B) {
	for _, backend := range []string{pem.BackendPaillier, pem.BackendHybrid} {
		b.Run("backend="+backend, func(b *testing.B) {
			tr := benchTrace(b, 8, 720)
			seed := int64(21)
			m, err := pem.NewMarket(pem.Config{
				KeyBits:       512,
				Seed:          &seed,
				CryptoBackend: backend,
			}, tr.Agents())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			inputs, err := tr.WindowInputs(tr.Windows / 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunWindow(ctx, i, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: ring vs tree aggregation topology, full protocol stack ---

func BenchmarkAggregationTopologyWindow(b *testing.B) {
	for _, agg := range []string{pem.AggregationRing, pem.AggregationTree} {
		b.Run("agg="+agg, func(b *testing.B) {
			tr := benchTrace(b, 16, 720)
			seed := int64(19)
			m, err := pem.NewMarket(pem.Config{
				KeyBits:     512,
				Seed:        &seed,
				Aggregation: agg,
			}, tr.Agents())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			inputs, err := tr.WindowInputs(tr.Windows / 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunWindow(ctx, i, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 6(a): trading price over the day ---

func BenchmarkFig6aTradingPrice(b *testing.B) {
	tr := benchTrace(b, 200, 720)
	params := pem.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := pem.SimulateDay(tr, params)
		if err != nil {
			b.Fatal(err)
		}
		var inBand int
		for _, p := range ds.Price {
			if p >= params.PriceFloor && p <= params.PriceCeil {
				inBand++
			}
		}
		b.ReportMetric(float64(inBand), "windows-in-band")
	}
}

// --- Fig. 6(b): tracked-seller utility, k ∈ {20, 40} ---

func BenchmarkFig6bSellerUtility(b *testing.B) {
	tr := benchTrace(b, 200, 720)
	params := pem.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []float64{20, 40} {
			if _, _, err := pem.SellerUtilitySeries(tr, 0, k, params); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig. 6(c): buyer-coalition cost, with vs without PEM ---

func BenchmarkFig6cBuyerCost(b *testing.B) {
	for _, n := range []int{100, 200} {
		b.Run(fmt.Sprintf("homes=%d", n), func(b *testing.B) {
			tr := benchTrace(b, n, 720)
			params := pem.DefaultParams()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds, err := pem.SimulateDay(tr, params)
				if err != nil {
					b.Fatal(err)
				}
				var pemCost, baseCost float64
				for w := 0; w < ds.Windows; w++ {
					pemCost += ds.BuyerCostPEM[w]
					baseCost += ds.BuyerCostBase[w]
				}
				if baseCost > 0 {
					b.ReportMetric(100*(1-pemCost/baseCost), "%savings")
				}
			}
		})
	}
}

// --- Fig. 6(d): interaction with the main grid ---

func BenchmarkFig6dGridInteraction(b *testing.B) {
	tr := benchTrace(b, 200, 720)
	params := pem.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := pem.SimulateDay(tr, params)
		if err != nil {
			b.Fatal(err)
		}
		var pemGrid, baseGrid float64
		for w := 0; w < ds.Windows; w++ {
			pemGrid += ds.GridPEM[w]
			baseGrid += ds.GridBase[w]
		}
		if baseGrid > 0 {
			b.ReportMetric(100*(1-pemGrid/baseGrid), "%reduction")
		}
	}
}

// --- Table I: average bandwidth per window by key size ---

func BenchmarkTable1Bandwidth(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprintf("key=%d", bits), func(b *testing.B) {
			tr := benchTrace(b, 8, 720)
			seed := int64(9)
			m, err := pem.NewMarket(pem.Config{KeyBits: bits, Seed: &seed}, tr.Agents())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			inputs, err := tr.WindowInputs(tr.Windows / 2)
			if err != nil {
				b.Fatal(err)
			}
			start := m.Metrics().TotalBytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunWindow(ctx, i, inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			total := m.Metrics().TotalBytes() - start
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "MB/window")
		})
	}
}

// --- Ablation: pre-encryption pool on vs off (DESIGN.md §6) ---

func BenchmarkAblationPreEncryption(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "pool=on"
		if !on {
			name = "pool=off"
		}
		b.Run(name, func(b *testing.B) {
			tr := benchTrace(b, 8, 720)
			seed := int64(11)
			pre := on
			m, err := pem.NewMarket(pem.Config{KeyBits: 2048, Seed: &seed, PreEncrypt: &pre}, tr.Agents())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			inputs, err := tr.WindowInputs(tr.Windows / 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunWindow(ctx, i, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: ring vs star aggregation critical path ---
//
// The PEM rings chain one ciphertext multiplication per member
// sequentially; a star topology would have every member encrypt in
// parallel and the sink multiply n ciphertexts. This micro-benchmark
// isolates the homomorphic-aggregation cost of both shapes for the
// Protocol 3 aggregate.

func BenchmarkAblationAggregationTopology(b *testing.B) {
	key, err := paillier.GenerateKey(mrand.New(mrand.NewSource(1)), 1024)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	rng := mrand.New(mrand.NewSource(2))
	cts := make([]*paillier.Ciphertext, n)
	for i := range cts {
		ct, err := key.EncryptInt64(rng, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}

	b.Run("ring-sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := cts[0]
			for j := 1; j < n; j++ {
				// Each hop folds one fresh encryption (simulating the
				// member's contribution) into the accumulator.
				var err error
				acc, err = key.Add(acc, cts[j])
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("star-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := cts[0]
			for j := 1; j < n; j++ {
				var err error
				acc, err = key.Add(acc, cts[j])
				if err != nil {
					b.Fatal(err)
				}
			}
			// The star sink additionally decrypts once; the ring's
			// decryption cost is identical, but the star pays n-1
			// network-parallel encryptions instead of a serial chain.
			if _, err := key.Decrypt(acc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: Paillier scalar-multiply cost in Protocol 4 ---

func BenchmarkAblationReciprocalScalarMul(b *testing.B) {
	key, err := paillier.GenerateKey(mrand.New(mrand.NewSource(3)), 2048)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := key.EncryptInt64(mrand.New(mrand.NewSource(4)), 123456789)
	if err != nil {
		b.Fatal(err)
	}
	exp := big.NewInt(1_000_000_007)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.ScalarMul(ct, exp); err != nil {
			b.Fatal(err)
		}
	}
}
