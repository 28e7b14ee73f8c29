// Command pem-bench regenerates the tables and figures of the paper's
// evaluation (Section VII).
//
// Usage:
//
//	pem-bench -fig 4            # coalition sizes vs trading windows
//	pem-bench -fig 5a           # avg runtime/window vs #windows, n sweep
//	pem-bench -fig 5b           # total runtime vs #windows, key sweep
//	pem-bench -fig 5c           # runtime vs #agents, key sweep
//	pem-bench -fig 6a|6b|6c|6d  # trading-performance figures
//	pem-bench -fig pipe         # sequential vs pipelined day comparison
//	pem-bench -fig par          # sequential vs parallel window comparison
//	pem-bench -fig grid         # sharded coalition grid throughput sweep
//	pem-bench -fig live         # epoched live grid under agent churn
//	pem-bench -fig net          # communication cost on emulated networks
//	pem-bench -fig crypto       # paillier vs hybrid backend ablation
//	pem-bench -fig scale        # hierarchical grid at 100k+ agents, RSS-gated
//	pem-bench -fig alloc        # allocation profile: allocs, bytes, GC share
//	pem-bench -table 1          # average bandwidth by key size
//	pem-bench -all              # everything
//
// By default the cryptographic experiments (5a/5b/5c/pipe/par/table 1) run
// at a reduced scale that finishes on a laptop; pass -full for the paper's
// scale (hundreds of agents, 720 windows — hours of compute).
//
// -inflight N pipelines the crypto experiments with up to N trading
// windows in flight (default 1, the paper's sequential deployment);
// outcomes are identical at any depth, only wall-clock changes.
//
// -crypto-workers N sizes the intra-window parallel crypto pool (default:
// all cores) and -agg ring|tree selects the coalition aggregation
// topology; outcomes are identical under every combination.
//
// The grid figure shards a heterogeneous fleet into -coalitions coalitions
// under the -partition strategy (fixed, random or balanced) and sweeps the
// coalition count, reporting aggregate windows/sec; -csv FILE additionally
// writes the sweep as CSV.
//
// The live figure runs a multi-day simulation: -epochs trading days with
// -churn fleet turnover per epoch boundary (joins, planned departures and
// crash failures), re-partitioning and re-keying every epoch. Re-key cost
// is reported separately from steady-state window throughput, and the
// cross-epoch settlement conservation checks are printed at the end.
//
// The crypto figure ablates the crypto backend: the same midday day slice
// under the paillier backend (the paper's construction) and the hybrid
// masking fast path, swept over aggregation topology × network preset.
// Every row revalidates the private outcome against the plaintext oracle
// and the ledger hash chain against the paillier baseline, so the headline
// speedup column is only reported for runs whose outcomes are provably
// unchanged. Restrict the preset sweep with -net; -csv writes the table.
//
// The scale figure measures the hierarchical grid's streaming and
// settlement plane at fleet scale: a seeded trading day over fleets up to
// -homes agents (default 100k; 1M with -full), swept against the -tiers
// hierarchy depth. Every coalition is two homes — below the MinCoalition
// floor — so each folds to the plaintext grid-tariff path and the figure
// isolates the supervisor, tier netting and memory machinery from crypto
// cost. Day traces synthesize lazily per coalition and stream through
// Grid.Stream, so resident memory stays bounded by the coalitions in
// flight; the RSS columns come from /proc/self/status, and with
// -rss-budget-mb N the run fails hard when the process high-water mark
// exceeds N MiB — CI uses this as the memory-regression gate.
//
// The alloc figure measures the memory discipline of the private window
// path: heap allocations and bytes per trading window, plus the share of
// wall-clock the run spent in GC stop-the-world pauses, swept over fleet
// size × crypto backend. Key generation and engine provisioning happen
// before the measured interval, so the figure isolates the steady-state
// window loop the pooled-arena work targets; -csv writes the sweep.
//
// Every figure accepts -cpuprofile, -memprofile and -trace, which write a
// CPU profile, a heap profile (taken after a final GC) and a runtime
// execution trace covering the selected figures — the inputs to
// `go tool pprof` / `go tool trace` when hunting a regression the alloc
// figure or the benchgate CI job flags.
//
// The net figure prices the protocols on deterministic emulated networks:
// the same trading-day slice swept over the topology presets (lan, metro,
// wan, cellular, lossy — restrict with -net) × aggregation topology (ring
// vs tree), reporting message counts, bytes, protocol round counts and
// critical-path virtual latency. The emulation runs on an event-time
// virtual clock, so even the WAN rows finish at in-memory-bus speed.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"github.com/pem-go/pem"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pem-bench:", err)
		os.Exit(1)
	}
}

type options struct {
	fig       string
	table     int
	all       bool
	full      bool
	homes     int
	windows   int
	keyBits   int
	seed      int64
	sample    int
	inflight  int
	cryptoWrk int
	agg       string
	coalition int
	partition string
	csvPath   string
	epochs    int
	churn     float64
	network   string
	tiers     string
	rssBudget int
	storePath string
	cpuProf   string
	memProf   string
	tracePath string
}

func run(args []string) error {
	fs := flag.NewFlagSet("pem-bench", flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.fig, "fig", "", "figure to regenerate: 4, 5a, 5b, 5c, 6a, 6b, 6c, 6d, pipe, par, grid, live, net, crypto, scale")
	fs.IntVar(&opt.table, "table", 0, "table to regenerate: 1")
	fs.BoolVar(&opt.all, "all", false, "regenerate every figure and table")
	fs.BoolVar(&opt.full, "full", false, "paper scale (slow) instead of laptop scale")
	fs.IntVar(&opt.homes, "homes", 0, "override the number of smart homes")
	fs.IntVar(&opt.windows, "windows", 0, "override the number of trading windows")
	fs.IntVar(&opt.keyBits, "keybits", 0, "override the Paillier key size")
	fs.Int64Var(&opt.seed, "seed", 20200425, "trace and protocol seed")
	fs.IntVar(&opt.sample, "sample", 60, "print every N-th window in series output")
	fs.IntVar(&opt.inflight, "inflight", 1, "trading windows to keep in flight concurrently")
	fs.IntVar(&opt.cryptoWrk, "crypto-workers", 0, "intra-window crypto worker pool size (0 = all cores)")
	fs.StringVar(&opt.agg, "agg", "", "aggregation topology: ring (default) or tree")
	fs.IntVar(&opt.coalition, "coalitions", 4, "max coalition count for the grid sweep")
	fs.StringVar(&opt.partition, "partition", pem.PartitionBalanced, "grid partition strategy: fixed, random or balanced")
	fs.StringVar(&opt.csvPath, "csv", "", "also write the grid/live sweep to this CSV file")
	fs.IntVar(&opt.epochs, "epochs", 4, "trading days to simulate in the live figure")
	fs.Float64Var(&opt.churn, "churn", 0.2, "fleet turnover per epoch boundary in the live figure")
	fs.StringVar(&opt.network, "net", "", "restrict the net figure to one topology preset (lan, metro, wan, cellular, lossy); empty sweeps all")
	fs.StringVar(&opt.tiers, "tiers", "8,4", "tier fanouts for the scale figure (coalitions per district, districts per region, …)")
	fs.IntVar(&opt.rssBudget, "rss-budget-mb", 0, "fail the scale figure when the process RSS high-water mark exceeds this many MiB (0 = no gate)")
	fs.StringVar(&opt.storePath, "store", "", "persist the live figure's run to this WAL file (resumable with pem.Resume)")
	fs.StringVar(&opt.cpuProf, "cpuprofile", "", "write a CPU profile covering the selected figures to this file")
	fs.StringVar(&opt.memProf, "memprofile", "", "write a heap profile (after a final GC) to this file")
	fs.StringVar(&opt.tracePath, "trace", "", "write a runtime execution trace covering the selected figures to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !opt.all && opt.fig == "" && opt.table == 0 {
		fs.Usage()
		return fmt.Errorf("choose -fig, -table or -all")
	}

	runners := map[string]func(options) error{
		"4":      fig4,
		"5a":     fig5a,
		"5b":     fig5b,
		"5c":     fig5c,
		"6a":     fig6a,
		"6b":     fig6b,
		"6c":     fig6c,
		"6d":     fig6d,
		"pipe":   pipeComparison,
		"par":    parComparison,
		"grid":   figGrid,
		"live":   figLive,
		"net":    figNet,
		"crypto": figCrypto,
		"scale":  figScale,
		"alloc":  figAlloc,
		"t1":     table1,
	}
	var targets []string
	switch {
	case opt.all:
		targets = []string{"4", "5a", "5b", "5c", "6a", "6b", "6c", "6d", "pipe", "par", "grid", "live", "net", "crypto", "scale", "alloc", "t1"}
	case opt.table == 1:
		targets = []string{"t1"}
	case opt.table != 0:
		return fmt.Errorf("unknown table %d", opt.table)
	default:
		key := strings.ToLower(opt.fig)
		if _, ok := runners[key]; !ok {
			return fmt.Errorf("unknown figure %q", opt.fig)
		}
		targets = []string{key}
	}
	stopProfiles, err := startProfiles(opt)
	if err != nil {
		return err
	}
	defer stopProfiles()
	for _, tgt := range targets {
		if err := runners[tgt](opt); err != nil {
			return fmt.Errorf("%s: %w", tgt, err)
		}
	}
	return nil
}

// startProfiles arms the -cpuprofile/-trace collectors and returns the stop
// hook that finalizes them and writes the -memprofile heap snapshot. The
// hook runs after the selected figures, so one invocation profiles exactly
// the work it printed.
func startProfiles(o options) (stop func(), err error) {
	var cpuFile, traceFile *os.File
	if o.cpuProf != "" {
		if cpuFile, err = os.Create(o.cpuProf); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if o.tracePath != "" {
		if traceFile, err = os.Create(o.tracePath); err != nil {
			return nil, err
		}
		if err = trace.Start(traceFile); err != nil {
			traceFile.Close()
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Printf("wrote %s\n", o.cpuProf)
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
			fmt.Printf("wrote %s\n", o.tracePath)
		}
		if o.memProf != "" {
			f, err := os.Create(o.memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pem-bench: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the snapshot shows live memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pem-bench: memprofile:", err)
			}
			f.Close()
			fmt.Printf("wrote %s\n", o.memProf)
		}
	}, nil
}

// scale resolves homes/windows/keybits for the crypto experiments.
func (o options) scale(fullHomes, fullWindows, laptopHomes, laptopWindows int) (homes, windows int) {
	homes, windows = laptopHomes, laptopWindows
	if o.full {
		homes, windows = fullHomes, fullWindows
	}
	if o.homes > 0 {
		homes = o.homes
	}
	if o.windows > 0 {
		windows = o.windows
	}
	return homes, windows
}

// keybits resolves the Paillier key size for a figure: the laptop default,
// the -full default, or the -keybits override.
func (o options) keybits(laptop, full int) int {
	bits := laptop
	if o.full {
		bits = full
	}
	if o.keyBits > 0 {
		bits = o.keyBits
	}
	return bits
}

// flushCSV writes a finished sweep to -csv when set, announcing the path.
// Every figure that tabulates rows ends with it.
func (o options) flushCSV(rows [][]string) error {
	if o.csvPath == "" {
		return nil
	}
	if err := writeCSV(o.csvPath, rows); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.csvPath)
	return nil
}

func (o options) trace(homes, windows int) (*pem.Trace, error) {
	return pem.GenerateTrace(pem.TraceConfig{Homes: homes, Windows: windows, Seed: o.seed})
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// fig4: coalition sizes vs trading windows.
func fig4(o options) error {
	homes, windows := o.scale(200, 720, 200, 720) // plaintext: full scale is fine
	tr, err := o.trace(homes, windows)
	if err != nil {
		return err
	}
	ds, err := pem.SimulateDay(tr, pem.DefaultParams())
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Fig. 4 — coalition sizes (%d homes, %d windows)", homes, windows))
	fmt.Printf("%8s %14s %14s\n", "window", "buyers", "sellers")
	for w := 0; w < ds.Windows; w += o.sample {
		fmt.Printf("%8d %14d %14d\n", w, ds.BuyerCount[w], ds.SellerCount[w])
	}
	return nil
}

// runPrivateWindows measures the crypto engine over m windows. The windows
// are drawn from the middle of the trading day so both coalitions are
// populated and every window exercises the full protocol stack (the first
// windows of the day are seller-less and cost almost nothing). With
// -inflight > 1 the windows run through the pipelined scheduler.
func runPrivateWindows(o options, homes, windows, keyBits int) (avgPerWindow time.Duration, total time.Duration, bytesTotal int64, err error) {
	// Always synthesize the full day, then run a midday slice of it.
	tr, err := o.trace(homes, 720)
	if err != nil {
		return 0, 0, 0, err
	}
	inputs, err := middayInputs(tr, windows)
	if err != nil {
		return 0, 0, 0, err
	}
	seed := o.seed
	m, err := pem.NewMarket(pem.Config{
		KeyBits:            keyBits,
		Seed:               &seed,
		MaxInflightWindows: o.inflight,
		CryptoWorkers:      o.cryptoWrk,
		Aggregation:        o.agg,
	}, tr.Agents())
	if err != nil {
		return 0, 0, 0, err
	}
	defer m.Close()
	start := time.Now()
	startBytes := m.Metrics().TotalBytes()
	if _, err := m.RunWindows(context.Background(), inputs); err != nil {
		return 0, 0, 0, err
	}
	total = time.Since(start)
	bytesTotal = m.Metrics().TotalBytes() - startBytes
	return total / time.Duration(windows), total, bytesTotal, nil
}

// pipeComparison runs the same day slice sequentially and at increasing
// pipeline depths, printing the wall-clock speedup of each depth over the
// sequential baseline. Outcomes are bit-identical across depths; only the
// scheduling changes.
func pipeComparison(o options) error {
	homes, windows := o.scale(100, 48, 8, 8)
	keyBits := o.keybits(512, 2048)
	depths := []int{1, 2, 4, 8}
	if o.inflight > 1 && o.inflight != 2 && o.inflight != 4 && o.inflight != 8 {
		depths = append(depths, o.inflight)
	}
	header(fmt.Sprintf("Pipelined scheduler — %d agents, %d windows, %d-bit keys", homes, windows, keyBits))
	fmt.Printf("%10s %16s %16s %10s\n", "inflight", "total runtime", "avg/window", "speedup")
	var baseline time.Duration
	for _, depth := range depths {
		op := o
		op.inflight = depth
		avg, total, _, err := runPrivateWindows(op, homes, windows, keyBits)
		if err != nil {
			return fmt.Errorf("inflight=%d: %w", depth, err)
		}
		if depth == 1 {
			baseline = total
		}
		speedup := float64(baseline) / float64(total)
		fmt.Printf("%10d %16s %16s %9.2fx\n", depth, total.Round(time.Millisecond), avg.Round(time.Millisecond), speedup)
	}
	return nil
}

// parComparison runs one midday window at a sweep of crypto worker counts
// and both aggregation topologies, printing the wall-clock speedup of each
// configuration over the single-worker ring baseline. Outcomes are
// identical under every configuration; only the scheduling changes.
func parComparison(o options) error {
	homes, windows := o.scale(100, 8, 32, 4)
	keyBits := o.keybits(512, 2048)
	workerCounts := []int{1, 2, 4, 8}
	if o.cryptoWrk > 1 && o.cryptoWrk != 2 && o.cryptoWrk != 4 && o.cryptoWrk != 8 {
		workerCounts = append(workerCounts, o.cryptoWrk)
	}
	header(fmt.Sprintf("Parallel window engine — %d agents, %d windows, %d-bit keys", homes, windows, keyBits))
	fmt.Printf("%6s %10s %16s %16s %10s\n", "agg", "workers", "total runtime", "avg/window", "speedup")
	var baseline time.Duration
	for _, agg := range []string{pem.AggregationRing, pem.AggregationTree} {
		for _, workers := range workerCounts {
			op := o
			op.agg = agg
			op.cryptoWrk = workers
			avg, total, _, err := runPrivateWindows(op, homes, windows, keyBits)
			if err != nil {
				return fmt.Errorf("agg=%s workers=%d: %w", agg, workers, err)
			}
			if agg == pem.AggregationRing && workers == 1 {
				baseline = total
			}
			speedup := float64(baseline) / float64(total)
			fmt.Printf("%6s %10d %16s %16s %9.2fx\n", agg, workers, total.Round(time.Millisecond), avg.Round(time.Millisecond), speedup)
		}
	}
	return nil
}

// fig5a: average runtime per window for several agent counts.
func fig5a(o options) error {
	ns := []int{8, 16, 24}
	windowsList := []int{2, 4, 8}
	if o.full {
		ns = []int{100, 200, 300}
		windowsList = []int{60, 360, 720}
	}
	keyBits := o.keybits(512, 2048)
	header(fmt.Sprintf("Fig. 5(a) — avg runtime per window (%d-bit keys)", keyBits))
	fmt.Printf("%8s %8s %20s\n", "agents", "windows", "avg runtime/window")
	for _, n := range ns {
		for _, w := range windowsList {
			avg, _, _, err := runPrivateWindows(o, n, w, keyBits)
			if err != nil {
				return err
			}
			fmt.Printf("%8d %8d %20s\n", n, w, avg.Round(time.Millisecond))
		}
	}
	return nil
}

// fig5b: total runtime vs number of windows for the three key sizes.
func fig5b(o options) error {
	homes, _ := o.scale(200, 0, 8, 0)
	windowsList := []int{2, 4, 8}
	if o.full {
		windowsList = []int{120, 360, 720}
	}
	header(fmt.Sprintf("Fig. 5(b) — total runtime by key size (%d agents)", homes))
	fmt.Printf("%8s %10s %16s\n", "windows", "key bits", "total runtime")
	for _, bits := range []int{512, 1024, 2048} {
		for _, w := range windowsList {
			_, total, _, err := runPrivateWindows(o, homes, w, bits)
			if err != nil {
				return err
			}
			fmt.Printf("%8d %10d %16s\n", w, bits, total.Round(time.Millisecond))
		}
	}
	return nil
}

// fig5c: runtime for a fixed day vs the number of agents.
func fig5c(o options) error {
	ns := []int{6, 10, 14}
	windows := 4
	if o.full {
		ns = []int{100, 150, 200, 250, 300}
		windows = 720
	}
	if o.windows > 0 {
		windows = o.windows
	}
	header(fmt.Sprintf("Fig. 5(c) — runtime over %d windows vs agents", windows))
	fmt.Printf("%8s %10s %16s\n", "agents", "key bits", "total runtime")
	for _, bits := range []int{512, 1024, 2048} {
		for _, n := range ns {
			_, total, _, err := runPrivateWindows(o, n, windows, bits)
			if err != nil {
				return err
			}
			fmt.Printf("%8d %10d %16s\n", n, bits, total.Round(time.Millisecond))
		}
	}
	return nil
}

// fig6a: trading price across the day.
func fig6a(o options) error {
	homes, windows := o.scale(200, 720, 200, 720)
	tr, err := o.trace(homes, windows)
	if err != nil {
		return err
	}
	params := pem.DefaultParams()
	ds, err := pem.SimulateDay(tr, params)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Fig. 6(a) — trading price (%d homes; grid %.0f/%.0f, band %.0f..%.0f)",
		homes, params.GridSellPrice, params.GridRetailPrice, params.PriceFloor, params.PriceCeil))
	fmt.Printf("%8s %12s %12s %10s\n", "window", "price", "p-hat", "market")
	for w := 0; w < ds.Windows; w += o.sample {
		fmt.Printf("%8d %12.2f %12.2f %10s\n", w, ds.Price[w], ds.PHat[w], ds.Kind[w])
	}
	return nil
}

// fig6b: utility of a tracked seller for k = 20 and 40.
func fig6b(o options) error {
	homes, windows := o.scale(200, 720, 200, 720)
	tr, err := o.trace(homes, windows)
	if err != nil {
		return err
	}
	params := pem.DefaultParams()

	// Track the home with the most seller windows (the paper tracks two
	// always-sellers from the real dataset).
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
	header(fmt.Sprintf("Fig. 6(b) — utility of tracked seller %s (%d seller windows)", tr.Homes[best].ID, bestCount))
	fmt.Printf("%8s %14s %14s %14s %14s\n", "window", "k=20 PEM", "k=20 no-PEM", "k=40 PEM", "k=40 no-PEM")
	w20, wo20, err := pem.SellerUtilitySeries(tr, best, 20, params)
	if err != nil {
		return err
	}
	w40, wo40, err := pem.SellerUtilitySeries(tr, best, 40, params)
	if err != nil {
		return err
	}
	for w := 0; w < tr.Windows; w += o.sample {
		fmt.Printf("%8d %14.4f %14.4f %14.4f %14.4f\n", w, w20[w], wo20[w], w40[w], wo40[w])
	}
	return nil
}

// fig6c: buyer-coalition cost with and without PEM for 100 and 200 homes.
func fig6c(o options) error {
	params := pem.DefaultParams()
	header("Fig. 6(c) — buyer coalition total cost (cents/window)")
	fmt.Printf("%8s %8s %16s %16s %10s\n", "homes", "window", "with PEM", "without PEM", "savings")
	for _, homes := range []int{100, 200} {
		tr, err := o.trace(homes, 720)
		if err != nil {
			return err
		}
		ds, err := pem.SimulateDay(tr, params)
		if err != nil {
			return err
		}
		var pemTot, baseTot float64
		for w := 0; w < ds.Windows; w++ {
			pemTot += ds.BuyerCostPEM[w]
			baseTot += ds.BuyerCostBase[w]
		}
		for w := 0; w < ds.Windows; w += o.sample {
			sav := 0.0
			if ds.BuyerCostBase[w] > 0 {
				sav = 100 * (1 - ds.BuyerCostPEM[w]/ds.BuyerCostBase[w])
			}
			fmt.Printf("%8d %8d %16.1f %16.1f %9.1f%%\n", homes, w, ds.BuyerCostPEM[w], ds.BuyerCostBase[w], sav)
		}
		fmt.Printf("%8d %8s %16.1f %16.1f %9.1f%%  (day total)\n",
			homes, "all", pemTot, baseTot, 100*(1-pemTot/baseTot))
	}
	return nil
}

// fig6d: interaction with the main grid.
func fig6d(o options) error {
	homes, windows := o.scale(200, 720, 200, 720)
	tr, err := o.trace(homes, windows)
	if err != nil {
		return err
	}
	ds, err := pem.SimulateDay(tr, pem.DefaultParams())
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Fig. 6(d) — grid interaction, kWh/window (%d homes)", homes))
	fmt.Printf("%8s %14s %14s\n", "window", "with PEM", "without PEM")
	var pemTot, baseTot float64
	for w := 0; w < ds.Windows; w++ {
		pemTot += ds.GridPEM[w]
		baseTot += ds.GridBase[w]
	}
	for w := 0; w < ds.Windows; w += o.sample {
		fmt.Printf("%8d %14.4f %14.4f\n", w, ds.GridPEM[w], ds.GridBase[w])
	}
	fmt.Printf("%8s %14.1f %14.1f  (day total, %.1f%% reduction)\n",
		"all", pemTot, baseTot, 100*(1-pemTot/baseTot))
	return nil
}

// figGrid sweeps the coalition count over one heterogeneous fleet: the same
// homes trade as one big coalition, then sharded 2-way, 4-way, … with all
// coalitions running concurrently over shared crypto and transport. The
// headline column is aggregate windows/sec — sharding turns the O(n)-round
// single-roster day into many small concurrent days, so throughput scales
// with the coalition count on a multicore host. Per-coalition outcomes stay
// bit-identical at any concurrency; across coalition counts the markets
// differ (different rosters), which is the point of the experiment.
func figGrid(o options) error {
	homes, windows := o.scale(192, 48, 16, 4)
	keyBits := o.keybits(512, 1024)
	// One fleet for the whole sweep: four scenario blocks regardless of the
	// coalition count under test, so every k trades the same homes.
	blocks := 4
	if homes/blocks < 2 {
		blocks = 1
	}
	tr, err := pem.GenerateFleet(pem.FleetConfig{
		Coalitions:        blocks,
		HomesPerCoalition: homes / blocks,
		Windows:           windows,
		Seed:              o.seed,
		StartHour:         11, // midday slice: populated coalitions on both sides
	})
	if err != nil {
		return err
	}
	homes = blocks * (homes / blocks)

	maxK := o.coalition
	if maxK < 1 {
		maxK = 1
	}
	// Every coalition needs at least two agents; cap the sweep rather than
	// fail after the smaller counts have already burned their compute.
	if limit := homes / 2; maxK > limit {
		fmt.Fprintf(os.Stderr, "pem-bench: capping -coalitions %d at %d (%d homes, ≥2 per coalition)\n", maxK, limit, homes)
		maxK = limit
	}
	var ks []int
	for k := 1; k <= maxK; k *= 2 {
		ks = append(ks, k)
	}
	if last := ks[len(ks)-1]; last != maxK {
		ks = append(ks, maxK)
	}

	header(fmt.Sprintf("Coalition grid — %d homes, %d windows, %d-bit keys, %s partition",
		homes, windows, keyBits, o.partition))
	fmt.Printf("%10s %14s %14s %10s %12s %12s %14s\n",
		"coalitions", "total runtime", "windows/sec", "speedup", "import kWh", "export kWh", "netting gain")
	rows := [][]string{{
		"coalitions", "partition", "homes", "windows", "keybits",
		"total_ms", "windows_per_sec", "speedup", "bytes", "msgs",
		"import_kwh", "export_kwh", "matched_kwh", "netting_gain_cents",
	}}
	var baseline float64
	for _, k := range ks {
		seed := o.seed
		g, err := pem.NewGrid(pem.GridConfig{
			Market: pem.Config{
				KeyBits:            keyBits,
				Seed:               &seed,
				MaxInflightWindows: o.inflight,
				CryptoWorkers:      o.cryptoWrk,
				Aggregation:        o.agg,
			},
			Coalitions:              k,
			Partition:               o.partition,
			MaxConcurrentCoalitions: k,
		}, tr)
		if err != nil {
			return fmt.Errorf("coalitions=%d: %w", k, err)
		}
		res, err := g.Run(context.Background())
		if err != nil {
			return fmt.Errorf("coalitions=%d: %w", k, err)
		}
		if k == ks[0] {
			baseline = res.WindowsPerSec
		}
		speedup := res.WindowsPerSec / baseline
		fleet := res.Settlement.Fleet
		fmt.Printf("%10d %14s %14.2f %9.2fx %12.2f %12.2f %13.0fc\n",
			k, res.Duration.Round(time.Millisecond), res.WindowsPerSec, speedup,
			fleet.ImportKWh, fleet.ExportKWh, res.Settlement.NettingGainCents)
		rows = append(rows, []string{
			fmt.Sprint(k), o.partition, fmt.Sprint(homes), fmt.Sprint(windows), fmt.Sprint(keyBits),
			fmt.Sprint(res.Duration.Milliseconds()),
			fmt.Sprintf("%.3f", res.WindowsPerSec),
			fmt.Sprintf("%.3f", speedup),
			fmt.Sprint(res.TotalBytes),
			fmt.Sprint(res.TotalMessages),
			fmt.Sprintf("%.4f", fleet.ImportKWh),
			fmt.Sprintf("%.4f", fleet.ExportKWh),
			fmt.Sprintf("%.4f", res.Settlement.MatchedKWh),
			fmt.Sprintf("%.2f", res.Settlement.NettingGainCents),
		})
	}
	fmt.Println("(same fleet at every row; aggregate throughput across concurrent coalition markets)")
	return o.flushCSV(rows)
}

// netDayStats aggregates one emulated trading day for the net figure.
type netDayStats struct {
	msgs, bytes int64
	roundsMax   int
	virtDay     time.Duration
	wall        time.Duration
	phaseMsgs   map[string]int64
	windowsRun  int
}

// runNetworkedDay runs a midday slice of the trading day over one emulated
// topology and aggregation, returning its communication-cost profile. The
// virtual clock prices every message against the topology's seeded link
// models, so the wall-clock column stays at in-memory-bus speed while the
// virtual columns report what a real deployment would wait out.
func runNetworkedDay(o options, homes, windows, keyBits int, topology, agg string) (*netDayStats, error) {
	tr, err := o.trace(homes, 720)
	if err != nil {
		return nil, err
	}
	inputs, err := middayInputs(tr, windows)
	if err != nil {
		return nil, err
	}
	seed := o.seed
	m, err := pem.NewMarket(pem.Config{
		KeyBits:            keyBits,
		Seed:               &seed,
		MaxInflightWindows: o.inflight,
		CryptoWorkers:      o.cryptoWrk,
		Aggregation:        agg,
		Network:            topology,
	}, tr.Agents())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	start := time.Now()
	results, err := m.RunWindows(context.Background(), inputs)
	if err != nil {
		return nil, err
	}
	st := &netDayStats{wall: time.Since(start), windowsRun: len(results)}
	for _, res := range results {
		st.msgs += res.Messages
		st.bytes += res.BytesOnWire
		st.virtDay += res.VirtualLatency
		if res.Rounds > st.roundsMax {
			st.roundsMax = res.Rounds
		}
	}
	st.phaseMsgs = m.Metrics().PhaseMessages()
	return st, nil
}

// figNet prices the protocols on emulated networks: the same midday day
// slice swept over every topology preset × aggregation topology, reporting
// message counts (total and per protocol phase), bytes, critical-path round
// counts and virtual latency. The headline contrast is ring vs tree on the
// high-latency presets — the log-depth tree cuts the round count, so its
// virtual day is far shorter even though both move the same bytes. Virtual
// time is event-driven (no wall-clock sleeps): the wall column stays at
// crypto speed under every topology.
func figNet(o options) error {
	homes, windows := o.scale(48, 8, 8, 2)
	keyBits := o.keybits(512, 1024)
	topologies := pem.NetworkPresets()
	if o.network != "" {
		topologies = []string{o.network}
	}

	header(fmt.Sprintf("Communication cost on emulated networks — %d agents, %d windows, %d-bit keys", homes, windows, keyBits))
	fmt.Printf("%10s %6s %8s %8s %10s %14s %14s %12s\n",
		"topology", "agg", "rounds", "msgs/w", "MB/w", "virt/window", "virt day", "wall")
	rows := [][]string{{
		"topology", "agg", "homes", "windows", "keybits",
		"msgs", "bytes", "rounds_max", "virt_ms_per_window", "virt_ms_day", "wall_ms",
		"msgs_role", "msgs_pme", "msgs_pp", "msgs_pd",
	}}
	for _, topology := range topologies {
		for _, agg := range []string{pem.AggregationRing, pem.AggregationTree} {
			st, err := runNetworkedDay(o, homes, windows, keyBits, topology, agg)
			if err != nil {
				return fmt.Errorf("topology=%s agg=%s: %w", topology, agg, err)
			}
			perWindow := st.virtDay / time.Duration(st.windowsRun)
			fmt.Printf("%10s %6s %8d %8d %10.3f %14s %14s %12s\n",
				topology, agg, st.roundsMax,
				st.msgs/int64(st.windowsRun),
				float64(st.bytes)/float64(st.windowsRun)/1e6,
				perWindow.Round(time.Millisecond), st.virtDay.Round(time.Millisecond),
				st.wall.Round(time.Millisecond))
			rows = append(rows, []string{
				topology, agg, fmt.Sprint(homes), fmt.Sprint(st.windowsRun), fmt.Sprint(keyBits),
				fmt.Sprint(st.msgs), fmt.Sprint(st.bytes), fmt.Sprint(st.roundsMax),
				fmt.Sprintf("%.3f", float64(perWindow)/1e6),
				fmt.Sprintf("%.3f", float64(st.virtDay)/1e6),
				fmt.Sprint(st.wall.Milliseconds()),
				fmt.Sprint(st.phaseMsgs["role"]), fmt.Sprint(st.phaseMsgs["pme"]),
				fmt.Sprint(st.phaseMsgs["pp"]), fmt.Sprint(st.phaseMsgs["pd"]),
			})
		}
	}
	fmt.Println("(virtual columns are event-time over the emulated links; wall is real elapsed time — no sleeps)")
	return o.flushCSV(rows)
}

// middayInputs slices windows consecutive midday windows out of a full
// synthetic day, so both coalitions are populated and every window
// exercises the full protocol stack.
func middayInputs(tr *pem.Trace, windows int) ([][]pem.WindowInput, error) {
	first := 360 - windows/2
	if first < 0 || windows > 720 {
		first = 0
	}
	inputs := make([][]pem.WindowInput, windows)
	for w := 0; w < windows; w++ {
		idx := first + w
		if idx >= tr.Windows {
			idx = tr.Windows - 1
		}
		var err error
		if inputs[w], err = tr.WindowInputs(idx); err != nil {
			return nil, err
		}
	}
	return inputs, nil
}

// cryptoRun is one cell of the backend-ablation matrix.
type cryptoRun struct {
	total       time.Duration
	results     []*pem.WindowResult
	msgs, bytes int64
	ledgerHead  [32]byte
	oracleOK    bool
	ledgerOK    bool
}

// runCryptoDay runs the midday slice under one backend × aggregation ×
// topology cell and revalidates the outcome: every window against the
// plaintext oracle, and the trade ledger against its own hash chain.
func runCryptoDay(o options, homes, windows, keyBits int, backend, agg, topology string) (*cryptoRun, error) {
	tr, err := o.trace(homes, 720)
	if err != nil {
		return nil, err
	}
	inputs, err := middayInputs(tr, windows)
	if err != nil {
		return nil, err
	}
	seed := o.seed
	m, err := pem.NewMarket(pem.Config{
		KeyBits:            keyBits,
		Seed:               &seed,
		MaxInflightWindows: o.inflight,
		CryptoWorkers:      o.cryptoWrk,
		Aggregation:        agg,
		CryptoBackend:      backend,
		Network:            topology,
	}, tr.Agents())
	if err != nil {
		return nil, err
	}
	defer m.Close()

	start := time.Now()
	results, err := m.RunWindows(context.Background(), inputs)
	if err != nil {
		return nil, err
	}
	run := &cryptoRun{total: time.Since(start), results: results, oracleOK: true}
	params := pem.DefaultParams()
	for w, res := range results {
		run.msgs += res.Messages
		run.bytes += res.BytesOnWire
		clr, err := pem.Clear(tr.Agents(), inputs[w], params)
		if err != nil {
			return nil, err
		}
		if res.Kind != clr.Kind || absf(res.Price-clr.Price) > 1e-4 || len(res.Trades) != len(clr.Trades) {
			run.oracleOK = false
		}
	}
	run.ledgerOK = m.Ledger().Verify() == nil
	run.ledgerHead = m.Ledger().Head().Hash
	return run, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// figCrypto ablates the crypto backend: paillier (the paper's construction,
// homomorphic aggregation + garbled-circuit comparison) against the hybrid
// masking fast path, across aggregation topology × network preset. The
// headline column is the per-window wall-clock speedup of hybrid over the
// paillier baseline of the same cell; oracle and ledger columns certify
// that the speedup comes with bit-identical market outcomes (the hybrid
// ledger chain must hash to the paillier chain's head).
func figCrypto(o options) error {
	homes, windows := o.scale(100, 24, 8, 4)
	keyBits := o.keybits(512, 1024)
	topologies := append([]string{""}, pem.NetworkPresets()...)
	if o.network != "" {
		topologies = []string{o.network}
	}

	header(fmt.Sprintf("Crypto backend ablation — %d agents, %d windows, %d-bit keys", homes, windows, keyBits))
	fmt.Printf("%10s %6s %10s %14s %14s %10s %10s %8s %8s\n",
		"topology", "agg", "backend", "total runtime", "avg/window", "speedup", "MB/day", "oracle", "ledger")
	rows := [][]string{{
		"topology", "agg", "backend", "homes", "windows", "keybits",
		"total_ms", "avg_window_ms", "speedup", "msgs", "bytes", "oracle_ok", "ledger_ok",
	}}
	for _, topology := range topologies {
		display := topology
		if display == "" {
			display = "direct"
		}
		for _, agg := range []string{pem.AggregationRing, pem.AggregationTree} {
			var baseline *cryptoRun
			for _, backend := range []string{pem.BackendPaillier, pem.BackendHybrid} {
				run, err := runCryptoDay(o, homes, windows, keyBits, backend, agg, topology)
				if err != nil {
					return fmt.Errorf("topology=%s agg=%s backend=%s: %w", display, agg, backend, err)
				}
				speedup := 1.0
				if backend == pem.BackendPaillier {
					baseline = run
				} else {
					speedup = float64(baseline.total) / float64(run.total)
					// The fast path only counts if the market is unchanged:
					// the hybrid ledger must replay the paillier chain.
					run.ledgerOK = run.ledgerOK && run.ledgerHead == baseline.ledgerHead
				}
				okStr := func(ok bool) string {
					if ok {
						return "ok"
					}
					return "FAIL"
				}
				fmt.Printf("%10s %6s %10s %14s %14s %9.2fx %10.3f %8s %8s\n",
					display, agg, backend,
					run.total.Round(time.Millisecond),
					(run.total / time.Duration(windows)).Round(time.Millisecond),
					speedup, float64(run.bytes)/1e6, okStr(run.oracleOK), okStr(run.ledgerOK))
				rows = append(rows, []string{
					display, agg, backend, fmt.Sprint(homes), fmt.Sprint(windows), fmt.Sprint(keyBits),
					fmt.Sprint(run.total.Milliseconds()),
					fmt.Sprintf("%.3f", float64(run.total)/float64(windows)/1e6),
					fmt.Sprintf("%.3f", speedup),
					fmt.Sprint(run.msgs), fmt.Sprint(run.bytes),
					fmt.Sprint(run.oracleOK), fmt.Sprint(run.ledgerOK),
				})
				if !run.oracleOK || !run.ledgerOK {
					return fmt.Errorf("topology=%s agg=%s backend=%s: outcome validation failed (oracle %v, ledger %v)",
						display, agg, backend, run.oracleOK, run.ledgerOK)
				}
			}
		}
	}
	fmt.Println("(speedup is per-cell vs the paillier baseline; oracle/ledger certify identical market outcomes)")
	return o.flushCSV(rows)
}

// figLive runs the epoched live grid: -epochs trading days over one
// churning fleet, with -churn turnover per epoch boundary (joins at the
// churn rate; departures and failures splitting the other churn-rate
// share). Every epoch re-partitions the surviving-plus-new roster and
// re-keys its coalitions over the shared crypto pool; the table reports
// that re-key cost separately from steady-state window throughput, and the
// run ends with the cross-epoch settlement conservation checks.
func figLive(o options) error {
	homes, windows := o.scale(192, 48, 16, 2)
	keyBits := o.keybits(512, 1024)
	epochs := o.epochs
	if epochs < 1 {
		epochs = 1
	}
	coalitions := o.coalition
	if coalitions < 1 {
		coalitions = 1
	}
	blocks := coalitions
	if homes/blocks < 2 {
		blocks = 1
	}

	var wal *pem.WALStore
	if o.storePath != "" {
		var err error
		if wal, err = pem.OpenWAL(o.storePath); err != nil {
			return err
		}
		defer wal.Close()
		if rec := wal.Recovered(); rec.Truncated {
			fmt.Fprintf(os.Stderr, "pem-bench: store recovery: dropped %d torn bytes, kept %d records\n",
				rec.DroppedBytes, rec.Records)
		}
	}

	seed := o.seed
	lgc := pem.LiveGridConfig{
		Market: pem.Config{
			KeyBits:            keyBits,
			Seed:               &seed,
			MaxInflightWindows: o.inflight,
			CryptoWorkers:      o.cryptoWrk,
			Aggregation:        o.agg,
		},
		Coalitions: coalitions,
		Partition:  o.partition,
		Epochs:     epochs,
		Churn: pem.ChurnConfig{
			JoinRate:   o.churn,
			DepartRate: o.churn * 0.6,
			FailRate:   o.churn * 0.4,
		},
	}
	if wal != nil {
		lgc.Store = wal
	}
	lg, err := pem.NewLiveGrid(lgc, pem.FleetConfig{
		Coalitions:        blocks,
		HomesPerCoalition: homes / blocks,
		Windows:           windows,
		Seed:              o.seed,
		StartHour:         11, // midday slice: populated coalitions on both sides
	})
	if err != nil {
		return err
	}

	header(fmt.Sprintf("Live grid — %d epochs, %.0f%% churn, %d homes at start, %d windows/epoch, %d-bit keys, %s partition",
		epochs, o.churn*100, blocks*(homes/blocks), windows, keyBits, o.partition))
	res, err := lg.Run(context.Background())
	if err != nil {
		return err
	}

	fmt.Printf("%6s %7s %18s %10s %12s %12s %14s %12s\n",
		"epoch", "agents", "churn (+/-/x)", "markets", "rekey", "trading", "windows/sec", "bytes")
	rows := [][]string{{
		"epoch", "agents", "joined", "departed", "failed", "coalitions", "folded",
		"windows", "rekey_ms", "trading_ms", "windows_per_sec", "bytes", "msgs",
	}}
	for _, er := range res.Epochs {
		var folded int
		for _, cr := range er.Coalitions {
			if cr.Folded {
				folded++
			}
		}
		wps := 0.0
		if er.Trading > 0 {
			wps = float64(er.Windows) / er.Trading.Seconds()
		}
		fmt.Printf("%6d %7d %18s %10s %12s %12s %14.2f %12d\n",
			er.Epoch, er.Agents,
			fmt.Sprintf("+%d/-%d/x%d", len(er.Joined), len(er.Departed), len(er.Failed)),
			fmt.Sprintf("%d(%df)", len(er.Coalitions), folded),
			er.Rekey.Round(time.Millisecond), er.Trading.Round(time.Millisecond),
			wps, er.Bytes)
		rows = append(rows, []string{
			fmt.Sprint(er.Epoch), fmt.Sprint(er.Agents),
			fmt.Sprint(len(er.Joined)), fmt.Sprint(len(er.Departed)), fmt.Sprint(len(er.Failed)),
			fmt.Sprint(len(er.Coalitions)), fmt.Sprint(folded),
			fmt.Sprint(er.Windows),
			fmt.Sprint(er.Rekey.Milliseconds()), fmt.Sprint(er.Trading.Milliseconds()),
			fmt.Sprintf("%.3f", wps), fmt.Sprint(er.Bytes), fmt.Sprint(er.Msgs),
		})
	}

	var active, frozen int
	for _, p := range res.Positions {
		if p.Active() {
			active++
		} else {
			frozen++
		}
	}
	fmt.Printf("totals: %d windows; re-key %s, trading %s — steady-state %.2f windows/sec\n",
		res.Windows, res.Rekey.Round(time.Millisecond), res.Trading.Round(time.Millisecond), res.WindowsPerSec)
	fmt.Printf("positions: %d active, %d settled leavers; conservation: energy %.3g kWh, payments %.3g cents\n",
		active, frozen, res.EnergyImbalanceKWh, res.PaymentImbalanceCents)
	fmt.Println("(rekey = the slowest coalition's key provisioning per epoch; trading = the rest of the epoch; steady-state = windows / trading)")
	if wal != nil {
		fmt.Printf("store: run persisted to %s (resumable with pem.Resume)\n", wal.Path())
	}
	return o.flushCSV(rows)
}

// parseTiers parses a -tiers fanout list ("8,4" = 8 coalitions per
// district, 4 districts per region) into a tier schedule.
func parseTiers(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -tiers fanout %q (want comma-separated integers ≥ 1)", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// procRSS reads the process's current and high-water resident set sizes
// from /proc/self/status, in MiB. Zero on platforms without procfs; the
// high-water mark (VmHWM) is monotonic over the process lifetime, which is
// what makes it a sound budget gate.
func procRSS() (cur, peak float64) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmRSS: %f kB", &kb); n == 1 {
			cur = kb / 1024
		}
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			peak = kb / 1024
		}
	}
	return cur, peak
}

// figScale measures the hierarchical grid's streaming, settlement and
// accounting plane at fleet scale: one seeded trading day per row, swept
// over fleet size (up to -homes agents) × tier-hierarchy depth (prefixes of
// the -tiers schedule, flat first). Every coalition is two homes — below
// the MinCoalition floor — so all of them fold to the plaintext grid-tariff
// path: the crypto engines never run, and the row cost is exactly the
// machinery the hierarchy adds (partitioning, lazy per-coalition day
// synthesis, the streaming supervisor, tier netting, O(1) metric folds).
// Day data is synthesized on demand and every coalition's payload is
// released after the streaming sink sees it, so resident memory is bounded
// by the coalitions in flight, not the fleet; the rss/hwm columns observe
// that from /proc/self/status, and -rss-budget-mb turns the observation
// into a hard failure. Throughput is reported as agents settled per second
// (folded coalitions complete no protocol windows, so windows/sec would
// read zero by construction).
func figScale(o options) error {
	maxAgents, windows := o.scale(1_000_000, 4, 100_000, 2)
	fanout, err := parseTiers(o.tiers)
	if err != nil {
		return err
	}
	// Sweep two decades up to the target fleet, two homes per coalition.
	var sweep []int
	for _, a := range []int{maxAgents / 100, maxAgents / 10, maxAgents} {
		if a < 8 {
			a = 8
		}
		a -= a % 2
		if len(sweep) == 0 || a > sweep[len(sweep)-1] {
			sweep = append(sweep, a)
		}
	}
	// All coalitions fold to plaintext, so concurrency only needs to cover
	// scheduling overhead — an unbounded default would stack one goroutine
	// per coalition, which at 10^5+ coalitions is itself a memory regression.
	maxConc := 4 * runtime.GOMAXPROCS(0)

	header(fmt.Sprintf("Hierarchical grid at scale — up to %d agents, %d windows, tiers %q, seed %d",
		sweep[len(sweep)-1], windows, o.tiers, o.seed))
	fmt.Printf("%10s %10s %10s %8s %14s %14s %12s %14s %10s %10s\n",
		"agents", "coalitions", "tiers", "nodes", "total runtime", "agents/sec", "matched kWh", "netting gain", "rss MiB", "hwm MiB")
	rows := [][]string{{
		"agents", "coalitions", "tiers", "tier_nodes", "windows",
		"total_ms", "agents_per_sec", "coalitions_per_sec",
		"matched_kwh", "netting_gain_cents", "grid_import_kwh", "grid_export_kwh",
		"rss_mb", "rss_hwm_mb",
	}}
	for _, agents := range sweep {
		for depth := 0; depth <= len(fanout); depth++ {
			schedule := fanout[:depth]
			label := "flat"
			if depth > 0 {
				parts := make([]string, depth)
				for i, f := range schedule {
					parts[i] = strconv.Itoa(f)
				}
				label = strings.Join(parts, ",")
			}
			coalitions := agents / 2
			tr, err := pem.GenerateFleet(pem.FleetConfig{
				Coalitions:        coalitions,
				HomesPerCoalition: 2,
				Windows:           windows,
				Seed:              o.seed,
				StartHour:         11,
				OnDemand:          true,
			})
			if err != nil {
				return fmt.Errorf("agents=%d tiers=%s: %w", agents, label, err)
			}
			seed := o.seed
			g, err := pem.NewGrid(pem.GridConfig{
				Market:                  pem.Config{Seed: &seed},
				Coalitions:              coalitions,
				Partition:               pem.PartitionFixed,
				MaxConcurrentCoalitions: maxConc,
				Tiers:                   schedule,
			}, tr)
			if err != nil {
				return fmt.Errorf("agents=%d tiers=%s: %w", agents, label, err)
			}
			var streamed, folded int
			res, err := g.Stream(context.Background(), func(cr *pem.CoalitionRun) error {
				streamed++
				if cr.Folded {
					folded++
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("agents=%d tiers=%s: %w", agents, label, err)
			}
			if streamed != coalitions || folded != coalitions {
				return fmt.Errorf("agents=%d tiers=%s: streamed %d coalitions (%d folded), want %d folded",
					agents, label, streamed, folded, coalitions)
			}
			nodes := 0
			if res.Tiers != nil {
				nodes = len(res.Tiers.Tiers)
			}
			var matched, gain float64
			if res.Tiers != nil {
				matched, gain = res.Tiers.MatchedKWh, res.Tiers.NettingGainCents
			} else if res.Settlement != nil {
				matched, gain = res.Settlement.MatchedKWh, res.Settlement.NettingGainCents
			}
			secs := res.Duration.Seconds()
			agentsPerSec, coalPerSec := 0.0, 0.0
			if secs > 0 {
				agentsPerSec = float64(agents) / secs
				coalPerSec = float64(coalitions) / secs
			}
			// Scavenge before sampling so the current-RSS column reflects
			// live memory, not lazily-returned heap; the high-water mark is
			// untouched by this and stays the honest budget metric.
			debug.FreeOSMemory()
			cur, peak := procRSS()
			fmt.Printf("%10d %10d %10s %8d %14s %14.0f %12.2f %13.0fc %10.0f %10.0f\n",
				agents, coalitions, label, nodes, res.Duration.Round(time.Millisecond),
				agentsPerSec, matched, gain, cur, peak)
			rows = append(rows, []string{
				fmt.Sprint(agents), fmt.Sprint(coalitions), label, fmt.Sprint(nodes), fmt.Sprint(windows),
				fmt.Sprint(res.Duration.Milliseconds()),
				fmt.Sprintf("%.1f", agentsPerSec), fmt.Sprintf("%.1f", coalPerSec),
				fmt.Sprintf("%.4f", matched), fmt.Sprintf("%.2f", gain),
				fmt.Sprintf("%.4f", res.Settlement.Fleet.ImportKWh),
				fmt.Sprintf("%.4f", res.Settlement.Fleet.ExportKWh),
				fmt.Sprintf("%.1f", cur), fmt.Sprintf("%.1f", peak),
			})
			if o.rssBudget > 0 && peak > float64(o.rssBudget) {
				return fmt.Errorf("agents=%d tiers=%s: RSS high-water %.0f MiB exceeds -rss-budget-mb %d",
					agents, label, peak, o.rssBudget)
			}
		}
	}
	fmt.Println("(every coalition folds to the plaintext tariff path: the figure isolates streaming + settlement cost from crypto)")
	return o.flushCSV(rows)
}

// figAlloc measures the memory discipline of the private window path: heap
// allocations and bytes per trading window plus the GC stop-the-world pause
// share of wall-clock, swept over fleet size × crypto backend. Key
// generation and engine provisioning happen before the measured interval
// and a forced GC settles the heap at its start, so the columns isolate the
// steady-state window loop — the figure the pooled scratch arenas, frame
// pools and reusable window state are accountable to. Counters come from
// runtime.ReadMemStats deltas across the RunWindows call (Mallocs,
// TotalAlloc, PauseTotalNs); they cover the whole process, which is the
// point — a pool that merely moves allocations to a background goroutine
// does not improve this figure.
func figAlloc(o options) error {
	agentCounts := []int{8, 16, 32}
	if o.full {
		agentCounts = []int{50, 100, 200}
	}
	if o.homes > 0 {
		agentCounts = []int{o.homes}
	}
	windows := 8
	if o.full {
		windows = 24
	}
	if o.windows > 0 {
		windows = o.windows
	}
	keyBits := o.keybits(512, 1024)

	header(fmt.Sprintf("Allocation profile — %d windows, %d-bit keys", windows, keyBits))
	fmt.Printf("%10s %8s %16s %16s %14s %12s\n",
		"backend", "agents", "allocs/window", "bytes/window", "GC pause", "wall")
	rows := [][]string{{
		"backend", "agents", "windows", "keybits",
		"allocs_per_window", "bytes_per_window", "gc_pause_frac", "wall_ms",
	}}
	for _, backend := range []string{pem.BackendPaillier, pem.BackendHybrid} {
		for _, agents := range agentCounts {
			tr, err := o.trace(agents, 720)
			if err != nil {
				return err
			}
			inputs, err := middayInputs(tr, windows)
			if err != nil {
				return err
			}
			seed := o.seed
			m, err := pem.NewMarket(pem.Config{
				KeyBits:            keyBits,
				Seed:               &seed,
				MaxInflightWindows: o.inflight,
				CryptoWorkers:      o.cryptoWrk,
				Aggregation:        o.agg,
				CryptoBackend:      backend,
			}, tr.Agents())
			if err != nil {
				return fmt.Errorf("backend=%s agents=%d: %w", backend, agents, err)
			}
			runtime.GC() // settle provisioning garbage outside the interval
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if _, err := m.RunWindows(context.Background(), inputs); err != nil {
				m.Close()
				return fmt.Errorf("backend=%s agents=%d: %w", backend, agents, err)
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			m.Close()

			allocsPerWin := float64(after.Mallocs-before.Mallocs) / float64(windows)
			bytesPerWin := float64(after.TotalAlloc-before.TotalAlloc) / float64(windows)
			pauseFrac := 0.0
			if wall > 0 {
				pauseFrac = float64(after.PauseTotalNs-before.PauseTotalNs) / float64(wall.Nanoseconds())
			}
			fmt.Printf("%10s %8d %16.0f %16.0f %13.2f%% %12s\n",
				backend, agents, allocsPerWin, bytesPerWin, 100*pauseFrac, wall.Round(time.Millisecond))
			rows = append(rows, []string{
				backend, fmt.Sprint(agents), fmt.Sprint(windows), fmt.Sprint(keyBits),
				fmt.Sprintf("%.1f", allocsPerWin),
				fmt.Sprintf("%.0f", bytesPerWin),
				fmt.Sprintf("%.5f", pauseFrac),
				fmt.Sprint(wall.Milliseconds()),
			})
		}
	}
	fmt.Println("(process-wide ReadMemStats deltas across the window loop; provisioning and keygen excluded)")
	return o.flushCSV(rows)
}

// writeCSV dumps rows to path.
func writeCSV(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// table1: average bandwidth per m windows by key size.
func table1(o options) error {
	homes, _ := o.scale(200, 0, 8, 0)
	ms := []int{2, 4, 6, 8}
	if o.full {
		ms = []int{300, 360, 420, 480, 540, 600, 660, 720}
	}
	header(fmt.Sprintf("Table I — average bandwidth (MB) over m windows (%d agents)", homes))
	fmt.Printf("%10s", "m")
	for _, m := range ms {
		fmt.Printf("%10d", m)
	}
	fmt.Println()
	for _, bits := range []int{512, 1024, 2048} {
		fmt.Printf("%9d-", bits)
		for _, mWin := range ms {
			_, _, bytesTotal, err := runPrivateWindows(o, homes, mWin, bits)
			if err != nil {
				return err
			}
			perWindowMB := float64(bytesTotal) / float64(mWin) / 1e6
			fmt.Printf("%10.3f", perWindowMB)
		}
		fmt.Println()
	}
	fmt.Println("(average MB of protocol traffic per trading window across all agents)")
	return nil
}
