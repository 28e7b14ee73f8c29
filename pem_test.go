package pem_test

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/pem-go/pem"
)

func seedPtr(v int64) *int64 { return &v }

func testMarket(t *testing.T, agents []pem.Agent, seed int64) *pem.Market {
	t.Helper()
	m, err := pem.NewMarket(pem.Config{KeyBits: 256, Seed: seedPtr(seed)}, agents)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestPublicAPIWindow(t *testing.T) {
	agents := []pem.Agent{
		{ID: "solar-roof", K: 85, Epsilon: 0.9},
		{ID: "townhouse", K: 75, Epsilon: 0.85},
		{ID: "ev-garage", K: 95, Epsilon: 0.9},
	}
	m := testMarket(t, agents, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := m.RunWindow(ctx, 0, []pem.WindowInput{
		{Generation: 0.40, Load: 0.10},
		{Generation: 0.00, Load: 0.25},
		{Generation: 0.05, Load: 0.30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != pem.GeneralMarket {
		t.Errorf("kind = %v", res.Kind)
	}
	params := pem.DefaultParams()
	if res.Price < params.PriceFloor || res.Price > params.PriceCeil {
		t.Errorf("price %v outside band", res.Price)
	}
	if len(res.Trades) != 2 {
		t.Errorf("trades = %d, want 2", len(res.Trades))
	}
}

func TestLedgerRecordsTrades(t *testing.T) {
	agents := []pem.Agent{
		{ID: "a", K: 85, Epsilon: 0.9},
		{ID: "b", K: 75, Epsilon: 0.85},
	}
	m := testMarket(t, agents, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := m.RunWindow(ctx, 0, []pem.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.4},
	}); err != nil {
		t.Fatal(err)
	}
	l := m.Ledger()
	if l == nil {
		t.Fatal("market kept no ledger")
	}
	if l.Len() != 2 { // genesis + window 0
		t.Fatalf("ledger height = %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	blk, err := l.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Trades) != 1 {
		t.Fatalf("block has %d trades", len(blk.Trades))
	}
	if blk.Trades[0].Seller != "a" || blk.Trades[0].Buyer != "b" {
		t.Errorf("trade parties wrong: %+v", blk.Trades[0])
	}
}

func TestNewMarketValidation(t *testing.T) {
	if _, err := pem.NewMarket(pem.Config{}, nil); err == nil {
		t.Error("no agents accepted")
	}
	if _, err := pem.NewMarket(pem.Config{KeyBits: 256}, []pem.Agent{{ID: "only", K: 1, Epsilon: 0.5}}); err == nil {
		t.Error("single agent accepted")
	}
}

func TestSimulateDaySeries(t *testing.T) {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 30, Windows: 240, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	params := pem.DefaultParams()
	ds, err := pem.SimulateDay(tr, params)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Windows != 240 {
		t.Fatalf("windows = %d", ds.Windows)
	}
	for w := 0; w < ds.Windows; w++ {
		// Price stays within the legal corridor (band or retail).
		p := ds.Price[w]
		inBand := p >= params.PriceFloor-1e-9 && p <= params.PriceCeil+1e-9
		if !inBand && p != params.GridRetailPrice {
			t.Fatalf("window %d: price %v neither in band nor retail", w, p)
		}
		// PEM never costs buyers more than the baseline (Fig 6c).
		if ds.BuyerCostPEM[w] > ds.BuyerCostBase[w]+1e-6 {
			t.Fatalf("window %d: PEM cost above baseline", w)
		}
		// PEM never increases grid interaction (Fig 6d).
		if ds.GridPEM[w] > ds.GridBase[w]+1e-6 {
			t.Fatalf("window %d: PEM grid interaction above baseline", w)
		}
	}
	// The day must include at least one non-degenerate trading window.
	traded := false
	for w := 0; w < ds.Windows; w++ {
		if ds.SellerCount[w] > 0 && ds.BuyerCount[w] > 0 {
			traded = true
			break
		}
	}
	if !traded {
		t.Error("no window had both coalitions non-empty")
	}
}

func TestSellerUtilitySeries(t *testing.T) {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 20, Windows: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	params := pem.DefaultParams()

	// Pick the home with the most seller windows (mirrors the paper
	// tracking two always-seller agents).
	best, bestCount := 0, -1
	for h := range tr.Homes {
		count := 0
		for w := 0; w < tr.Windows; w++ {
			if tr.Gen[h][w]-tr.Load[h][w]-tr.Battery[h][w] > 0 {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = h, count
		}
	}
	if bestCount == 0 {
		t.Skip("trace has no seller windows")
	}

	with20, without20, err := pem.SellerUtilitySeries(tr, best, 20, params)
	if err != nil {
		t.Fatal(err)
	}
	with40, _, err := pem.SellerUtilitySeries(tr, best, 40, params)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < tr.Windows; w++ {
		if with20[w] < without20[w]-1e-9 {
			t.Fatalf("window %d: PEM utility %v below baseline %v", w, with20[w], without20[w])
		}
		if with20[w] != 0 && with40[w] <= with20[w] {
			t.Fatalf("window %d: k=40 utility %v not above k=20 %v", w, with40[w], with20[w])
		}
	}

	if _, _, err := pem.SellerUtilitySeries(tr, -1, 20, params); err == nil {
		t.Error("negative home index accepted")
	}
	if _, _, err := pem.SellerUtilitySeries(tr, 0, 0, params); err == nil {
		t.Error("zero k accepted")
	}
}

func TestRunDayPrivateMatchesSimulation(t *testing.T) {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 6, Windows: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m := testMarket(t, tr.Agents(), 8)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	day, err := m.RunDay(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pem.SimulateDay(tr, pem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(day.Results) != sim.Windows {
		t.Fatalf("windows: %d vs %d", len(day.Results), sim.Windows)
	}
	for w, res := range day.Results {
		if math.Abs(res.Price-sim.Price[w]) > 1e-4 {
			t.Errorf("window %d: private price %v, simulated %v", w, res.Price, sim.Price[w])
		}
		if res.SellerCount != sim.SellerCount[w] || res.BuyerCount != sim.BuyerCount[w] {
			t.Errorf("window %d: coalition sizes disagree", w)
		}
	}
	if day.TotalBytes <= 0 {
		t.Error("no bytes accounted")
	}
	// Ledger sanity: one block per window plus genesis.
	if m.Ledger().Len() != tr.Windows+1 {
		t.Errorf("ledger height %d", m.Ledger().Len())
	}
	if err := m.Ledger().Verify(); err != nil {
		t.Error(err)
	}
}

func TestClearAndBaselineExported(t *testing.T) {
	agents := []pem.Agent{
		{ID: "s", K: 85, Epsilon: 0.9},
		{ID: "b", K: 75, Epsilon: 0.85},
	}
	inputs := []pem.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.4},
	}
	clr, err := pem.Clear(agents, inputs, pem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	base, err := pem.BaselineClear(agents, inputs, pem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if clr.TotalBuyerCost() > base.TotalBuyerCost() {
		t.Error("PEM cost above baseline")
	}
}

// TestRunWindowsPipelinedBitIdentical is the acceptance check for the
// pipelined scheduler: on a seeded 10-agent, 48-window trace, RunWindows
// with four windows in flight must produce bit-identical per-window
// results (price, kind, trades) to the strictly sequential path.
func TestRunWindowsPipelinedBitIdentical(t *testing.T) {
	// This late-afternoon slice mixes regimes: ~30 general-market and ~18
	// extreme-market windows, every one running the full protocol stack.
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 10, Windows: 48, Seed: 424242, StartHour: 16.3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]pem.WindowInput, tr.Windows)
	for w := 0; w < tr.Windows; w++ {
		if inputs[w], err = tr.WindowInputs(w); err != nil {
			t.Fatal(err)
		}
	}

	run := func(inflight int) []*pem.WindowResult {
		m, err := pem.NewMarket(pem.Config{
			KeyBits:            256,
			Seed:               seedPtr(99),
			MaxInflightWindows: inflight,
		}, tr.Agents())
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 600*time.Second)
		defer cancel()
		results, err := m.RunWindows(ctx, inputs)
		if err != nil {
			t.Fatalf("inflight=%d: %v", inflight, err)
		}
		if m.Ledger().Len() != tr.Windows+1 {
			t.Fatalf("inflight=%d: ledger height %d", inflight, m.Ledger().Len())
		}
		if err := m.Ledger().Verify(); err != nil {
			t.Fatalf("inflight=%d: %v", inflight, err)
		}
		return results
	}

	seq := run(1)
	pipe := run(4)
	for w := range seq {
		s, p := seq[w], pipe[w]
		if s.Kind != p.Kind || s.Price != p.Price || s.PHat != p.PHat || s.Degenerate != p.Degenerate {
			t.Errorf("window %d: outcome differs: %+v vs %+v", w, s, p)
		}
		if len(s.Trades) != len(p.Trades) {
			t.Fatalf("window %d: trade counts differ", w)
		}
		for i := range s.Trades {
			if s.Trades[i] != p.Trades[i] {
				t.Errorf("window %d trade %d: %+v vs %+v", w, i, s.Trades[i], p.Trades[i])
			}
		}
	}
}

// TestRunDayTreeAggregationMatchesSimulation validates the log-depth tree
// topology against the plaintext oracle over a full (small) trace: every
// window's clearing must match market.Clear to fixed-point precision, as
// with the default ring.
func TestRunDayTreeAggregationMatchesSimulation(t *testing.T) {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 6, Windows: 6, Seed: 7, StartHour: 16.3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pem.NewMarket(pem.Config{
		KeyBits:            256,
		Seed:               seedPtr(77),
		Aggregation:        pem.AggregationTree,
		MaxInflightWindows: 2,
	}, tr.Agents())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	day, err := m.RunDay(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pem.SimulateDay(tr, pem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for w, res := range day.Results {
		if math.Abs(res.Price-sim.Price[w]) > 1e-4 {
			t.Errorf("window %d: tree price %v, simulated %v", w, res.Price, sim.Price[w])
		}
		if res.Kind != sim.Kind[w] {
			t.Errorf("window %d: tree kind %v, simulated %v", w, res.Kind, sim.Kind[w])
		}
		if res.SellerCount != sim.SellerCount[w] || res.BuyerCount != sim.BuyerCount[w] {
			t.Errorf("window %d: coalition sizes disagree", w)
		}
		// Per-window traded volume must match the oracle's clearing.
		clr, err := pem.Clear(tr.Agents(), mustInputs(t, tr, w), pem.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var got, want float64
		for _, tr := range res.Trades {
			got += tr.Energy
		}
		for _, tr := range clr.Trades {
			want += tr.Energy
		}
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("window %d: tree volume %v, oracle %v", w, got, want)
		}
	}
	if err := m.Ledger().Verify(); err != nil {
		t.Error(err)
	}
}

func mustInputs(t *testing.T, tr *pem.Trace, w int) []pem.WindowInput {
	t.Helper()
	in, err := tr.WindowInputs(w)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestStreamDayInOrder checks the streaming day path delivers results in
// strict window order while pipelining, and that the ledger matches.
func TestStreamDayInOrder(t *testing.T) {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 6, Windows: 8, Seed: 9, StartHour: 16.6})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pem.NewMarket(pem.Config{
		KeyBits:            256,
		Seed:               seedPtr(10),
		MaxInflightWindows: 4,
	}, tr.Agents())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	var seen []int
	day, err := m.StreamDay(ctx, tr, func(res *pem.WindowResult) error {
		seen = append(seen, res.Window)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != tr.Windows {
		t.Fatalf("sink saw %d windows, want %d", len(seen), tr.Windows)
	}
	for w, got := range seen {
		if got != w {
			t.Fatalf("out-of-order delivery: position %d got window %d", w, got)
		}
	}
	if len(day.Results) != tr.Windows || day.TotalBytes <= 0 {
		t.Fatalf("day result malformed: %d windows, %d bytes", len(day.Results), day.TotalBytes)
	}
	if m.Ledger().Len() != tr.Windows+1 {
		t.Fatalf("ledger height %d", m.Ledger().Len())
	}
	if err := m.Ledger().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDayTotalBytesIsTheDays: a window run on the same market while
// the day streams — here from the sink — is not the day's traffic.
// DayResult.TotalBytes sums the day's own WindowResults, not the bus.
func TestStreamDayTotalBytesIsTheDays(t *testing.T) {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 4, Windows: 3, Seed: 9, StartHour: 16.6})
	if err != nil {
		t.Fatal(err)
	}
	m, err := pem.NewMarket(pem.Config{KeyBits: 256, Seed: seedPtr(11)}, tr.Agents())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var extra int64
	day, err := m.StreamDay(ctx, tr, func(res *pem.WindowResult) error {
		if res.Window != 0 {
			return nil
		}
		side, err := m.RunWindow(ctx, 1000, []pem.WindowInput{
			{Generation: 0.4, Load: 0.1}, {Load: 0.3}, {Load: 0.2}, {Generation: 0.3, Load: 0.1},
		})
		if err != nil {
			return err
		}
		extra = side.BytesOnWire
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, res := range day.Results {
		sum += res.BytesOnWire
	}
	if extra == 0 || day.TotalBytes != sum {
		t.Fatalf("TotalBytes %d, day's windows carry %d (side window %d)", day.TotalBytes, sum, extra)
	}
}
