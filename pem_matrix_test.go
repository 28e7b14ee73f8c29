package pem_test

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/secchan"
	"github.com/pem-go/pem/internal/transport"
)

// TestInvariantMatrix is the correctness contract in one place. One seeded
// scenario per deployment — Market, Grid, LiveGrid and Resume — runs in
// every backend × aggregation × network cell, the network being the
// in-memory bus ("mem") or an emulated preset; Market adds standalone
// parties over loopback TCP, plain ("tcp") and sealed ("secchan"), which
// the hybrid backend refuses. Every cell is held to the plaintext oracle
// (pem.Clear: kind, price, coalition sizes, trades), Ledger.Verify, energy
// and payment conservation across epochs, and one outcome digest — kinds,
// prices, trades, chain heads, settlement, positions — equal in every cell
// of the deployment. The reference cell (paillier/ring/mem) runs
// sequentially; every other cell streams with three windows in flight and
// every coalition concurrent.
func TestInvariantMatrix(t *testing.T) {
	for _, dep := range []struct {
		name     string
		run      func(*testing.T, cell) string
		networks []string // beyond mem and the presets
	}{
		{"Market", marketCell, []string{"tcp", "secchan"}},
		{"Grid", gridCell, nil},
		{"LiveGrid", liveCell, nil},
		{"Resume", resumeCell, nil},
	} {
		var mu sync.Mutex
		digests := map[string]string{}
		t.Run(dep.name, func(t *testing.T) {
			networks := append(append([]string{"mem"}, pem.NetworkPresets()...), dep.networks...)
			for _, backend := range []string{pem.BackendPaillier, pem.BackendHybrid} {
				for _, agg := range []string{pem.AggregationRing, pem.AggregationTree} {
					for _, network := range networks {
						c := cell{backend, agg, network}
						t.Run(c.name(), func(t *testing.T) {
							t.Parallel()
							d := dep.run(t, c)
							mu.Lock()
							digests[c.name()] = d
							mu.Unlock()
						})
					}
				}
			}
		})
		ref, ok := digests[refCell.name()]
		for name, d := range digests {
			if ok && d != "" && d != ref {
				t.Errorf("%s/%s: outcome digest %s, reference cell %s", dep.name, name, d, ref)
			}
		}
	}
}

// cell is one backend × aggregation × network point of the matrix.
type cell struct{ backend, agg, network string }

var refCell = cell{pem.BackendPaillier, pem.AggregationRing, "mem"}

func (c cell) name() string { return c.backend + "/" + c.agg + "/" + c.network }

// config is the cell's market configuration and coalition budget: one
// window and one coalition at a time in the reference cell, three windows
// and every coalition (0) elsewhere.
func (c cell) config(seed int64) (pem.Config, int) {
	cfg := pem.Config{KeyBits: 256, Seed: seedPtr(seed), CryptoBackend: c.backend, Aggregation: c.agg, MaxInflightWindows: 3}
	if c.network != "mem" {
		cfg.Network = c.network
	}
	if c == refCell {
		cfg.MaxInflightWindows = 1
		return cfg, 1
	}
	return cfg, 0
}

// marketTrace is the Market scenario: eight homes, a general and an extreme
// market whose demand side — the buyers, resp. the sellers — has 1, 2, 3
// and 5 members (at 256-bit keys Hs opens two masked products a ciphertext,
// so 3 and 5 split into uneven batches), then a window with no sellers.
func marketTrace() *pem.Trace {
	const homes, windows = 8, 9
	tr := &pem.Trace{Windows: windows}
	for h := range homes {
		tr.Homes = append(tr.Homes, dataset.Home{ID: fmt.Sprintf("h%d", h), K: float64(70 + 6*h), Epsilon: 0.85})
		tr.Gen = append(tr.Gen, make([]float64, windows))
		tr.Load = append(tr.Load, make([]float64, windows))
		tr.Battery = append(tr.Battery, make([]float64, windows))
		tr.Load[h][windows-1] = 0.1 + 0.01*float64(h)
	}
	w := 0
	for _, general := range []bool{true, false} {
		for _, demand := range []int{1, 2, 3, 5} {
			for h := range demand + 2 {
				big, small := 0.30+0.02*float64(h), 0.05+0.01*float64(h)
				switch {
				case h < demand && general:
					tr.Load[h][w] = big
				case h < demand:
					tr.Gen[h][w] = big
				case general: // a charging seller exercises ε_i·b_i in Protocol 3
					tr.Gen[h][w], tr.Battery[h][w] = small+0.01, 0.01
				default:
					tr.Load[h][w] = small
				}
			}
			w++
		}
	}
	return tr
}

// refusedWindow is the window every Market cell must refuse with a
// RatioSumError: two buyers of 3·10^5 kWh get k_j = round(10^12/|sn_j|) = 3
// for 3.33, so each decoded ratio is 0.556, and trading on them would sell
// 0.444 kWh of seller h0's 0.4.
func refusedWindow() []pem.WindowInput {
	in := make([]pem.WindowInput, 8)
	in[0], in[1] = pem.WindowInput{Generation: 0.4}, pem.WindowInput{Generation: 0.3}
	in[2], in[3] = pem.WindowInput{Load: 3e5}, pem.WindowInput{Load: 3e5}
	return in
}

// refusal checks that err refuses window w with a RatioSumError and
// returns the refusal's message for the digest.
func refusal(t *testing.T, err error, w int) string {
	t.Helper()
	var sumErr *pem.RatioSumError
	if !errors.As(err, &sumErr) || sumErr.Window != w {
		t.Fatalf("window %d: err = %v, want its RatioSumError", w, err)
	}
	return sumErr.Error()
}

func marketCell(t *testing.T, c cell) string {
	if c.network == "tcp" || c.network == "secchan" {
		return standaloneCell(t, c)
	}
	tr := marketTrace()
	cfg, _ := c.config(26)
	m, err := pem.NewMarket(cfg, tr.Agents())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var sink func(*pem.WindowResult) error // nil: the reference cell's RunDay
	if c != refCell {
		sink = func(*pem.WindowResult) error { return nil }
	}
	day, err := m.StreamDay(t.Context(), tr, sink)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for w, res := range day.Results {
		checkWindow(t, h, tr.Agents(), mustInputs(t, tr, w), res)
		if emulated := c.network != "mem"; emulated != (res.VirtualLatency > 0 && res.Rounds > 0) {
			t.Errorf("window %d: virtual latency %v, %d rounds on %s", w, res.VirtualLatency, res.Rounds, c.network)
		}
	}
	checkLedger(t, h, m.Ledger())
	_, err = m.RunWindow(t.Context(), tr.Windows, refusedWindow())
	fmt.Fprintln(h, refusal(t, err, tr.Windows))
	return hex.EncodeToString(h.Sum(nil))
}

// standaloneCell runs the Market scenario across eight standalone parties
// — the cmd/pem-agent deployment — each on its own loopback TCP listener,
// behind secchan in the "secchan" cells, and chains their outcomes into a
// ledger as a Market does its results.
func standaloneCell(t *testing.T, c cell) string {
	tr := marketTrace()
	agents := tr.Agents()
	dir := secchan.NewDirectory()
	nodes := make([]*transport.TCPNode, len(agents))
	parties := make([]*core.Party, len(agents))
	peers := make([]string, len(agents))
	for i, a := range agents {
		node, err := transport.ListenTCP(a.ID, "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes[i], peers[i] = node, a.ID
		var conn transport.Conn = node
		if c.network == "secchan" {
			id, err := secchan.NewIdentity(nil)
			if err != nil {
				t.Fatal(err)
			}
			dir.Register(a.ID, id.PublicKey())
			conn = secchan.New(node, id, dir)
		}
		p, err := core.NewStandaloneParty(core.Config{KeyBits: 256, Seed: seedPtr(26), CryptoBackend: c.backend, Aggregation: c.agg}, a, conn)
		if c.backend == pem.BackendHybrid {
			if err == nil || !strings.Contains(err.Error(), "hybrid backend not supported") {
				t.Fatalf("standalone hybrid party: err = %v, want the refusal", err)
			}
			return ""
		}
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		parties[i] = p
	}
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].SetPeer(peers[j], nodes[j].Addr())
			}
		}
	}

	// Every party trades the day, then the refused window; Hs's refusal
	// cancels the rest, as a failing party cancels its window in an engine.
	inputs := make([][]pem.WindowInput, tr.Windows, tr.Windows+1)
	outs := make([][]*core.PartyOutcome, tr.Windows+1) // an off party may clear the refused window
	for w := range outs {
		outs[w] = make([]*core.PartyOutcome, len(parties))
	}
	for w := range tr.Windows {
		inputs[w] = mustInputs(t, tr, w)
	}
	inputs = append(inputs, refusedWindow())
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	errs := make([]error, len(parties))
	var wg sync.WaitGroup
	for i, p := range parties {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.ExchangeKeys(ctx, peers)
			for w := 0; w < len(inputs) && errs[i] == nil; w++ {
				outs[w][i], errs[i] = p.RunTradingWindow(ctx, w, inputs[w][i])
			}
			if errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	refused := refusal(t, errors.Join(errs...), tr.Windows)

	h, led := sha256.New(), ledger.New()
	for w, outs := range outs[:tr.Windows] {
		o := outs[0]
		res := &pem.WindowResult{Window: w, Kind: o.Kind, Price: o.Price, Degenerate: o.Degenerate, SellerCount: o.SellerCount, BuyerCount: o.BuyerCount}
		for _, o := range outs {
			if o.Kind != res.Kind || o.Price != res.Price {
				t.Errorf("window %d: parties disagree: %v at %v vs %v at %v", w, o.Kind, o.Price, res.Kind, res.Price)
			}
			res.Trades = append(res.Trades, o.Trades...)
		}
		slices.SortFunc(res.Trades, func(a, b pem.Trade) int {
			return cmp.Or(strings.Compare(a.Seller, b.Seller), strings.Compare(a.Buyer, b.Buyer))
		})
		checkWindow(t, h, agents, inputs[w], res)
		if _, err := led.Append(w, res.Price, ledger.RecordsFromTrades(res.Trades)); err != nil {
			t.Fatal(err)
		}
	}
	checkLedger(t, h, led)
	fmt.Fprintln(h, refused)
	return hex.EncodeToString(h.Sum(nil))
}

// gridWANTraffic pins the Grid scenario's traffic on the emulated WAN per
// backend: each coalition's bytes, messages, virtual latency (ns) and
// rounds, then the day's bytes, messages and virtual latency. Tiers settle
// residuals and must not move a byte.
var gridWANTraffic = map[string][]int64{
	pem.BackendPaillier: {
		37251, 126, 2097667366, 18,
		34740, 102, 1870553629, 14,
		35976, 114, 1846755756, 16,
		107967, 342, 2097667366,
	},
	pem.BackendHybrid: {
		7506, 120, 1860702757, 16,
		5463, 96, 1879472410, 14,
		6543, 108, 1716662887, 15,
		19512, 324, 1879472410,
	},
}

// gridCell runs the Grid scenario — three balanced coalitions of four
// homes, three windows (seed 24) — flat and with Tiers [2].
func gridCell(t *testing.T, c cell) string {
	tr, err := pem.GenerateFleet(pem.FleetConfig{Coalitions: 3, HomesPerCoalition: 4, Windows: 3, Seed: 24, StartHour: 16.5})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	market, width := c.config(24)
	for _, tiers := range [][]int{nil, {2}} {
		g, err := pem.NewGrid(pem.GridConfig{
			Market:                  market,
			Coalitions:              3,
			Partition:               pem.PartitionBalanced,
			MaxConcurrentCoalitions: width,
			Tiers:                   tiers,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		var traffic []int64
		visit := func(cr *pem.CoalitionRun) error {
			checkCoalition(t, h, tr, cr)
			traffic = append(traffic, cr.Bytes, cr.Msgs, int64(cr.VirtualLatency), int64(cr.Rounds))
			return nil
		}
		var res *pem.GridResult
		if c != refCell {
			res, err = g.Stream(t.Context(), visit)
		} else if res, err = g.Run(t.Context()); err == nil {
			for i := range res.Coalitions {
				visit(&res.Coalitions[i])
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, *res.Settlement)
		if res.Tiers != nil {
			fmt.Fprintln(h, res.Tiers.Tiers, res.Tiers.MatchedKWh, res.Tiers.NettingGainCents)
		}
		traffic = append(traffic, res.TotalBytes, res.TotalMessages, int64(res.VirtualLatency))
		if want := gridWANTraffic[c.backend]; c.network == pem.NetworkWAN && c.agg == pem.AggregationRing && !slices.Equal(traffic, want) {
			t.Errorf("tiers %v: WAN traffic\n got  %v\n want %v", tiers, traffic, want)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// liveScenario is the LiveGrid scenario: two balanced coalitions of four
// homes, one late-afternoon window a day, three epochs of churn; store
// makes it durable.
func liveScenario(c cell, store pem.Store) (pem.LiveGridConfig, pem.FleetConfig) {
	market, width := c.config(41)
	return pem.LiveGridConfig{
			Market:                  market,
			Coalitions:              2,
			Partition:               pem.PartitionBalanced,
			MaxConcurrentCoalitions: width,
			RetainCoalitionResults:  c == refCell, // Run releases them otherwise
			Store:                   store,
			Epochs:                  3,
			Churn:                   pem.ChurnConfig{JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1},
		}, pem.FleetConfig{
			Coalitions:        2,
			HomesPerCoalition: 4,
			Windows:           1,
			Seed:              7,
			StartHour:         17,
		}
}

func liveCell(t *testing.T, c cell) string {
	cfg, fleet := liveScenario(c, nil)
	return liveDigest(t, c, mustLiveGrid(t, cfg, fleet))
}

// epochKill is a crashStore that kills the run on the first block append
// after epoch `after`'s checkpoint: early in the next epoch.
type epochKill struct {
	crashStore
	after int
}

func (s *epochKill) PutCheckpoint(cp pem.Checkpoint) error {
	if cp.Epoch == s.after {
		s.killAt = s.appends + 1
	}
	return s.Store.PutCheckpoint(cp)
}

// resumeCell kills a durable LiveGrid run early in epoch 2, resumes it from
// the WAL file alone and checks the replayed epoch.
func resumeCell(t *testing.T, c cell) string {
	path := filepath.Join(t.TempDir(), "live.wal")
	wal, err := pem.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, fleet := liveScenario(c, &epochKill{crashStore{Store: wal}, 1})
	if _, err := mustLiveGrid(t, cfg, fleet).Run(t.Context()); !errors.Is(err, errCrashed) {
		t.Fatalf("kill after epoch 1 did not surface: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	lg, err := pem.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if lg.ResumedEpoch() != 1 {
		t.Fatalf("resumed after epoch %d, want 1", lg.ResumedEpoch())
	}
	return liveDigest(t, c, lg)
}

// liveDigest runs a live grid of the LiveGrid scenario, checking every
// epoch it trades against the scenario's regenerated fleet history.
func liveDigest(t *testing.T, c cell, lg *pem.LiveGrid) string {
	cfg, fleet := liveScenario(c, nil)
	cfg.Churn.Epochs = cfg.Epochs
	evo, err := dataset.Evolve(fleet, cfg.Churn)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	visit := func(er *pem.EpochResult) error {
		if er.Windows == 0 {
			t.Errorf("epoch %d traded no window", er.Epoch)
		}
		fmt.Fprintln(h, er.Epoch, *er.Settlement)
		for i := range er.Coalitions {
			checkCoalition(t, h, evo.Epochs[er.Epoch].Trace, &er.Coalitions[i])
		}
		return nil
	}
	var res *pem.LiveGridResult
	if c != refCell {
		res, err = lg.Stream(t.Context(), visit)
	} else if res, err = lg.Run(t.Context()); err == nil {
		for i := range res.Epochs {
			visit(&res.Epochs[i])
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EnergyImbalanceKWh) > 1e-9 || math.Abs(res.PaymentImbalanceCents) > 1e-6 {
		t.Errorf("conservation: energy %v kWh, payments %v ¢", res.EnergyImbalanceKWh, res.PaymentImbalanceCents)
	}
	fmt.Fprintln(h, res.Positions)
	return hex.EncodeToString(h.Sum(nil))
}

// checkCoalition holds a coalition-day to the oracle and its ledger; tr is
// the fleet trace its Members index.
func checkCoalition(t *testing.T, h hash.Hash, tr *pem.Trace, cr *pem.CoalitionRun) {
	t.Helper()
	fmt.Fprintln(h, cr.Name, cr.Folded, cr.ChainHead)
	if cr.Folded {
		return
	}
	sub, err := tr.Select(cr.Members)
	if err != nil {
		t.Fatal(err)
	}
	for w, res := range cr.Results {
		checkWindow(t, h, sub.Agents(), mustInputs(t, sub, w), res)
	}
	if err := cr.Ledger.Verify(); err != nil || ledger.HashString(cr.Ledger.Head().Hash) != cr.ChainHead {
		t.Errorf("%s: ledger %v, head %x, chain head %s", cr.Name, err, cr.Ledger.Head().Hash, cr.ChainHead)
	}
}

// checkWindow holds one private window to pem.Clear — kind, price within
// 10^-4, coalition sizes and every pairwise trade within 10^-4 kWh — and
// adds its outcome to the digest.
func checkWindow(t *testing.T, h hash.Hash, agents []pem.Agent, inputs []pem.WindowInput, res *pem.WindowResult) {
	t.Helper()
	fmt.Fprintln(h, res.Window, res.Kind, res.Price, res.Degenerate, res.Trades)
	clr, err := pem.Clear(agents, inputs, pem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ok := res.Kind == clr.Kind && math.Abs(res.Price-clr.Price) <= 1e-4 && len(res.Trades) == len(clr.Trades) &&
		res.SellerCount == len(clr.SellerIDs) && res.BuyerCount == len(clr.BuyerIDs)
	for _, tr := range res.Trades {
		i := slices.IndexFunc(clr.Trades, func(o pem.Trade) bool { return o.Seller == tr.Seller && o.Buyer == tr.Buyer })
		ok = ok && i >= 0 && math.Abs(tr.Energy-clr.Trades[i].Energy) <= 1e-4
	}
	if !ok {
		t.Errorf("window %d: %v at %.6f, %d/%d, %v; oracle %v at %.6f, %d/%d, %v", res.Window, res.Kind, res.Price,
			res.SellerCount, res.BuyerCount, res.Trades, clr.Kind, clr.Price, len(clr.SellerIDs), len(clr.BuyerIDs), clr.Trades)
	}
}

// checkLedger verifies a chain and adds its head to the digest.
func checkLedger(t *testing.T, h hash.Hash, led *pem.Ledger) {
	t.Helper()
	if err := led.Verify(); err != nil {
		t.Error(err)
	}
	fmt.Fprintf(h, "%x\n", led.Head().Hash)
}
