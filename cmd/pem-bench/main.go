// Command pem-bench reproduces the paper's evaluation (Section VII): Fig. 4,
// Fig. 5(a)–(c), Fig. 6(a)–(d) and Table I. Each artefact is a registry
// entry whose run returns a table and whose claim checks it — the plaintext
// figures against what the paper reports, the crypto figures by replaying
// every private window against the plaintext oracle (pem.Clear). A claim
// that does not hold fails the run.
//
//	pem-bench -fig 4|5a|5b|5c|6a|6b|6c|6d | -table 1 | -all
//
// Laptop scale by default; -full runs the paper's (hundreds of agents, 720
// windows: hours). -homes and -windows override a sweep with one value;
// the key-size figures sweep -keybits b over b, 2b and 4b (default 512).
// What the system itself costs is measured by benchmark/, not here.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
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
	full                            bool
	homes, windows, keyBits, sample int
	seed                            int64
}

// table is an artefact's output: named columns of numbers, one row per
// window (series, printed every -sample-th row) or per sweep cell.
type table struct {
	cols   []string
	rows   [][]float64
	series bool
}

// col returns the values of the named column.
func (t *table) col(name string) []float64 {
	c, out := slices.Index(t.cols, name), make([]float64, len(t.rows))
	for r, row := range t.rows {
		out[r] = row[c]
	}
	return out
}

// artefact is one registry entry: run reproduces it, claim checks the
// result and summarises it in one line.
type artefact struct {
	name, title string
	run         func(options) (*table, error)
	claim       func(*table) (string, error)
}

var registry = []artefact{
	{"4", "Fig. 4 — coalition sizes per window", plainFig([]int{200}, perWindow(func(ds *pem.DaySeries, w int) []float64 {
		return []float64{float64(ds.BuyerCount[w]), float64(ds.SellerCount[w])}
	}), "buyers", "sellers"), claimFig4},
	{"5a", "Fig. 5(a) — runtime per window vs agents", cryptoFig(false, []int{8, 16, 24}, []int{100, 200, 300}, []int{2, 4, 8}, []int{60, 360, 720}), claimOracle},
	{"5b", "Fig. 5(b) — total runtime by key size", cryptoFig(true, []int{8}, []int{200}, []int{2, 4, 8}, []int{120, 360, 720}), claimOracle},
	{"5c", "Fig. 5(c) — total runtime vs agents by key size", cryptoFig(true, []int{6, 10, 14}, []int{100, 150, 200, 250, 300}, []int{4}, []int{720}), claimOracle},
	{"6a", "Fig. 6(a) — trading price per window", plainFig([]int{200}, perWindow(func(ds *pem.DaySeries, w int) []float64 {
		return []float64{ds.Price[w], ds.PHat[w]}
	}), "price", "p_hat"), claimFig6a},
	{"6b", "Fig. 6(b) — utility of the tracked seller", plainFig([]int{200}, fig6b, "k20_pem", "k20_no_pem", "k40_pem", "k40_no_pem"), claimFig6b},
	{"6c", "Fig. 6(c) — buyer coalition cost, cents/window", plainFig([]int{100, 200}, perWindow(func(ds *pem.DaySeries, w int) []float64 {
		return []float64{ds.BuyerCostPEM[w], ds.BuyerCostBase[w]}
	}), "pem", "no_pem"), claimSavings},
	{"6d", "Fig. 6(d) — grid interaction, kWh/window", plainFig([]int{200}, perWindow(func(ds *pem.DaySeries, w int) []float64 {
		return []float64{ds.GridPEM[w], ds.GridBase[w]}
	}), "pem", "no_pem"), claimSavings},
	{"t1", "Table I — bandwidth, MB/window by key size", cryptoFig(true, []int{8}, []int{200}, []int{2, 4, 6, 8},
		[]int{300, 360, 420, 480, 540, 600, 660, 720}), claimTable1},
}

func run(args []string) error {
	fs := flag.NewFlagSet("pem-bench", flag.ContinueOnError)
	var o options
	fig := fs.String("fig", "", "figure to reproduce: 4, 5a, 5b, 5c, 6a, 6b, 6c, 6d")
	tbl := fs.Int("table", 0, "table to reproduce: 1")
	all := fs.Bool("all", false, "reproduce every figure and table")
	fs.BoolVar(&o.full, "full", false, "paper scale (slow) instead of laptop scale")
	fs.IntVar(&o.homes, "homes", 0, "override the number of smart homes")
	fs.IntVar(&o.windows, "windows", 0, "override the number of trading windows")
	fs.IntVar(&o.keyBits, "keybits", 0, "override the (smallest) Paillier key size")
	fs.Int64Var(&o.seed, "seed", 20200425, "trace and protocol seed")
	fs.IntVar(&o.sample, "sample", 60, "print every N-th window of a series")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := strings.ToLower(*fig)
	switch {
	case !*all && name == "" && *tbl == 0:
		fs.Usage()
		return fmt.Errorf("choose -fig, -table or -all")
	case *tbl == 1:
		name = "t1"
	case *tbl != 0:
		return fmt.Errorf("unknown table %d", *tbl)
	case !*all && !slices.ContainsFunc(registry, func(a artefact) bool { return a.name == name }):
		return fmt.Errorf("unknown figure %q", *fig)
	}
	for _, a := range registry {
		if !*all && a.name != name {
			continue
		}
		t, err := a.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Printf("\n=== %s ===\n", a.title)
		for _, c := range t.cols {
			fmt.Printf("%14s", c)
		}
		for r, row := range t.rows {
			if t.series && o.sample > 1 && r%o.sample != 0 {
				continue
			}
			fmt.Println()
			for _, v := range row {
				fmt.Printf("%14.6g", v)
			}
		}
		fmt.Println()
		note, err := a.claim(t)
		if err != nil {
			return fmt.Errorf("%s: claim does not hold: %w", a.name, err)
		}
		fmt.Printf("ok  %-3s %s\n", a.name, note)
	}
	return nil
}

// sweep returns laptop, full under -full, or just the override when set.
func (o options) sweep(laptop, full []int, override int) []int {
	switch {
	case override > 0:
		return []int{override}
	case o.full:
		return full
	}
	return laptop
}

// perWindow adapts a row that needs no per-day preparation to plainFig.
func perWindow(row func(ds *pem.DaySeries, w int) []float64) func(*pem.Trace, *pem.DaySeries) (func(int) []float64, error) {
	return func(_ *pem.Trace, ds *pem.DaySeries) (func(int) []float64, error) {
		return func(w int) []float64 { return row(ds, w) }, nil
	}
}

// plainFig tabulates each fleet's day (the paper's sizes, fast even at full
// scale, or -homes) on pem.SimulateDay: per window, homes, window, then the
// cols of the row day prepares.
func plainFig(fleets []int, day func(*pem.Trace, *pem.DaySeries) (func(w int) []float64, error), cols ...string) func(options) (*table, error) {
	return func(o options) (*table, error) {
		t := &table{cols: append([]string{"homes", "window"}, cols...), series: true}
		for _, homes := range o.sweep(fleets, fleets, o.homes) {
			tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: homes, Windows: cmp.Or(o.windows, 720), Seed: o.seed})
			if err != nil {
				return nil, err
			}
			ds, err := pem.SimulateDay(tr, pem.DefaultParams())
			if err != nil {
				return nil, err
			}
			row, err := day(tr, ds)
			if err != nil {
				return nil, err
			}
			for w := 0; w < ds.Windows; w++ {
				t.rows = append(t.rows, append([]float64{float64(homes), float64(w)}, row(w)...))
			}
		}
		return t, nil
	}
}

// fig6b tracks the home with the most seller windows (the paper tracks two
// always-sellers of its dataset) at k = 20 and k = 40.
func fig6b(tr *pem.Trace, _ *pem.DaySeries) (func(int) []float64, error) {
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
	w20, wo20, err := pem.SellerUtilitySeries(tr, best, 20, pem.DefaultParams())
	if err != nil {
		return nil, err
	}
	w40, wo40, err := pem.SellerUtilitySeries(tr, best, 40, pem.DefaultParams())
	return func(w int) []float64 { return []float64{w20[w], wo20[w], w40[w], wo40[w]} }, err
}

var cryptoCols = []string{"keybits", "agents", "windows", "total_ms", "avg_ms", "mb_per_window", "mismatches"}

// cryptoFig runs every keybits × agents × windows cell through a private
// market, one cryptoCols row per cell. Agents and windows sweep their
// laptop or -full lists; keybits sweeps b, 2b, 4b from -keybits b (default
// 512), or with keySweep false takes b (4b under -full, as in the paper).
func cryptoFig(keySweep bool, homes, fullHomes, windows, fullWindows []int) func(options) (*table, error) {
	return func(o options) (*table, error) {
		t := &table{cols: cryptoCols}
		b := cmp.Or(o.keyBits, 512)
		bits := []int{b, 2 * b, 4 * b}
		if !keySweep && o.full {
			bits = bits[2:]
		} else if !keySweep {
			bits = bits[:1]
		}
		for _, b := range bits {
			for _, h := range o.sweep(homes, fullHomes, o.homes) {
				for _, w := range o.sweep(windows, fullWindows, o.windows) {
					if err := t.private(o, b, h, w); err != nil {
						return nil, err
					}
				}
			}
		}
		return t, nil
	}
}

// private runs windows consecutive midday windows of a seeded day (both
// coalitions populated) through a private market, key generation untimed,
// and appends one cryptoCols row; a window pem.Clear disagrees with, or
// cannot clear, is a mismatch.
func (t *table) private(o options, keyBits, homes, windows int) error {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: homes, Windows: 720, Seed: o.seed})
	if err != nil {
		return err
	}
	inputs := make([][]pem.WindowInput, windows)
	for w := range inputs {
		if inputs[w], err = tr.WindowInputs(360 - windows/2 + w); err != nil {
			return err
		}
	}
	seed := o.seed
	m, err := pem.NewMarket(pem.Config{KeyBits: keyBits, Seed: &seed}, tr.Agents())
	if err != nil {
		return err
	}
	defer m.Close()
	startBytes, start := m.Metrics().TotalBytes(), time.Now()
	results, err := m.RunWindows(context.Background(), inputs)
	if err != nil {
		return err
	}
	ms, bytes := float64(time.Since(start))/1e6, m.Metrics().TotalBytes()-startBytes
	mismatches := 0
	for w, res := range results {
		clr, err := pem.Clear(tr.Agents(), inputs[w], pem.DefaultParams())
		if err != nil || res.Kind != clr.Kind || math.Abs(res.Price-clr.Price) > 1e-4 ||
			len(res.Trades) != len(clr.Trades) || math.Abs(volume(res.Trades)-volume(clr.Trades)) > 1e-3 {
			mismatches++
		}
	}
	t.rows = append(t.rows, []float64{float64(keyBits), float64(homes), float64(windows),
		ms, ms / float64(windows), float64(bytes) / float64(windows) / 1e6, float64(mismatches)})
	return nil
}

func volume(trades []pem.Trade) (v float64) {
	for _, tr := range trades {
		v += tr.Energy
	}
	return v
}

// claimFig4: the day opens and closes without sellers and has some at midday.
func claimFig4(t *table) (string, error) {
	sellers := t.col("sellers")
	n := len(sellers)
	if n < 3 || sellers[0] != 0 || sellers[n-1] != 0 || sellers[n/2] == 0 {
		return "", fmt.Errorf("sellers first/midday/last = %v/%v/%v, want 0/>0/0", sellers[0], sellers[n/2], sellers[n-1])
	}
	return fmt.Sprintf("no sellers in windows 0 and %d, %v at midday", n-1, sellers[n/2]), nil
}

// claimFig6a: every general-market price — a window with a p̂, the others
// pay a grid tariff — lies in [PriceFloor, PriceCeil].
func claimFig6a(t *table) (string, error) {
	p, count := pem.DefaultParams(), 0
	price, pHat := t.col("price"), t.col("p_hat")
	for r := range t.rows {
		if pHat[r] == 0 {
			continue
		}
		if count++; price[r] < p.PriceFloor || price[r] > p.PriceCeil {
			return "", fmt.Errorf("row %d: general-market price %v outside [%v, %v]", r, price[r], p.PriceFloor, p.PriceCeil)
		}
	}
	if count == 0 {
		return "", fmt.Errorf("no general-market window")
	}
	return fmt.Sprintf("%d general-market prices in [%v, %v]", count, p.PriceFloor, p.PriceCeil), nil
}

// claimFig6b: individual rationality — with PEM the tracked seller is never
// worse off than selling to the grid, at either k. Windows in which the
// home does not sell report zero utility both ways.
func claimFig6b(t *table) (string, error) {
	sellerWindows := 0
	for _, k := range []string{"k20", "k40"} {
		with, without := t.col(k+"_pem"), t.col(k+"_no_pem")
		for r := range t.rows {
			if with[r] < without[r] {
				return "", fmt.Errorf("row %d: %s utility with PEM %v below without %v", r, k, with[r], without[r])
			}
			if k == "k20" && without[r] != 0 {
				sellerWindows++
			}
		}
	}
	if sellerWindows == 0 {
		return "", fmt.Errorf("the tracked home never sells")
	}
	return fmt.Sprintf("utility with PEM ≥ without in all %d seller windows, k = 20 and 40", sellerWindows), nil
}

// claimSavings (Figs. 6c, 6d): with PEM never above without in any window,
// strictly below over each fleet's day.
func claimSavings(t *table) (string, error) {
	homes, with, without := t.col("homes"), t.col("pem"), t.col("no_pem")
	var notes []string
	for start, end := 0, 0; start < len(t.rows); start = end {
		var sumWith, sumWithout float64
		for ; end < len(t.rows) && homes[end] == homes[start]; end++ {
			if with[end] > without[end] {
				return "", fmt.Errorf("row %d: with PEM %v above without %v", end, with[end], without[end])
			}
			sumWith, sumWithout = sumWith+with[end], sumWithout+without[end]
		}
		if sumWith >= sumWithout {
			return "", fmt.Errorf("%v homes: day total with PEM %v not below %v", homes[start], sumWith, sumWithout)
		}
		notes = append(notes, fmt.Sprintf("−%.1f %% at %v homes", 100*(1-sumWith/sumWithout), homes[start]))
	}
	return "with PEM ≤ without every window; day total " + strings.Join(notes, ", "), nil
}

// claimOracle: every private window reproduced the plaintext clearing. It
// reports, rather than asserts, how runtime scales with the key (Fig. 5(b)
// in particular): pre-encryption hides encryption cost, not decryption,
// scalar multiplication or ciphertext size (docs/BENCHMARKS.md).
func claimOracle(t *table) (string, error) {
	windows, mismatches := t.col("windows"), t.col("mismatches")
	var total float64
	for r := range t.rows {
		if total += windows[r]; mismatches[r] != 0 {
			return "", fmt.Errorf("row %d: %v of %v private windows differ from pem.Clear", r, mismatches[r], windows[r])
		}
	}
	note, hi := fmt.Sprintf("%v private windows match pem.Clear", total), t.rows[len(t.rows)-1]
	for _, lo := range t.rows { // the smallest key comes first
		if lo[0] != hi[0] && lo[1] == hi[1] && lo[2] == hi[2] {
			return fmt.Sprintf("%s; %v:%v-bit runtime %.1f× at %v agents, %v windows", note, hi[0], lo[0], hi[3]/lo[3], hi[1], hi[2]), nil
		}
	}
	return note, nil
}

// claimTable1: bandwidth per window rises strictly with the key size. Rows
// run in ascending key size, so within one window count each row's
// MB/window must exceed the last one seen.
func claimTable1(t *table) (string, error) {
	note, err := claimOracle(t)
	if err != nil {
		return "", err
	}
	last := map[float64][]float64{}
	for r, row := range t.rows {
		if prev := last[row[2]]; prev != nil && row[5] <= prev[5] {
			return "", fmt.Errorf("row %d: %v-bit keys %v MB/window, not above %v-bit %v", r, row[0], row[5], prev[0], prev[5])
		}
		last[row[2]] = row
	}
	return note + "; MB/window rises strictly with key size", nil
}
