package grid

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/transport"
)

func testEngineConfig(seed int64) core.Config {
	return core.Config{
		KeyBits:    256,
		PreEncrypt: true,
		Seed:       &seed,
	}
}

func testFleet(t *testing.T, coalitions, homes, windows int) *dataset.Trace {
	t.Helper()
	tr, err := dataset.GenerateFleet(dataset.FleetConfig{
		Coalitions:        coalitions,
		HomesPerCoalition: homes,
		Windows:           windows,
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPartitionSizesAndDeterminism(t *testing.T) {
	tr := testFleet(t, 3, 4, 1) // 12 homes
	for _, s := range Strategies() {
		a, err := Partition(s, tr.Homes, 5, 7) // sizes 3,3,2,2,2
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		b, err := Partition(s, tr.Homes, 5, 7)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		wantSizes := []int{3, 3, 2, 2, 2}
		for i, part := range a {
			if len(part) != wantSizes[i] {
				t.Errorf("%s: coalition %d size %d, want %d", s, i, len(part), wantSizes[i])
			}
			for j, h := range part {
				if seen[h] {
					t.Errorf("%s: home %d in two coalitions", s, h)
				}
				seen[h] = true
				if b[i][j] != h {
					t.Errorf("%s: partition not deterministic", s)
				}
			}
		}
		if len(seen) != 12 {
			t.Errorf("%s: %d homes assigned, want 12", s, len(seen))
		}
	}
	// The random strategy must actually depend on the seed.
	a, _ := Partition(StrategyRandom, tr.Homes, 4, 1)
	b, _ := Partition(StrategyRandom, tr.Homes, 4, 2)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("random partition ignored its seed")
	}
}

func TestPartitionErrors(t *testing.T) {
	tr := testFleet(t, 1, 4, 1)
	if _, err := Partition(StrategyFixed, tr.Homes, 0, 0); err == nil {
		t.Error("accepted zero coalitions")
	}
	if _, err := Partition(StrategyFixed, tr.Homes, 3, 0); err == nil {
		t.Error("accepted coalitions of size <2")
	}
	if _, err := Partition("round-robin", tr.Homes, 2, 0); err == nil {
		t.Error("accepted unknown strategy")
	}
}

// TestPartitionBalancedMixes: with half producers and half consumers, every
// balanced coalition must contain at least one of each — the property that
// lets each coalition trade internally at all.
func TestPartitionBalancedMixes(t *testing.T) {
	homes := make([]dataset.Home, 8)
	for i := range homes {
		homes[i] = dataset.Home{ID: string(rune('a' + i)), BaseLoadKW: 1}
		if i < 4 {
			homes[i].SolarCapKW = 5 + float64(i) // producers
		}
	}
	parts, err := Partition(StrategyBalanced, homes, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range parts {
		var producers, consumers int
		for _, h := range part {
			if homes[h].NetCapacityKW() > 0 {
				producers++
			} else {
				consumers++
			}
		}
		if producers == 0 || consumers == 0 {
			t.Errorf("coalition %d not mixed: %d producers, %d consumers", i, producers, consumers)
		}
	}
}

// gridSnapshot strips the non-deterministic fields (durations) from a grid
// result so runs can be compared bit-for-bit.
type windowSnap struct {
	Window      int
	Kind        market.Kind
	Price       float64
	PHat        float64
	Trades      []market.Trade
	Degenerate  bool
	Sellers     int
	Buyers      int
	BytesOnWire int64
}

func snapshot(res *Result) [][]windowSnap {
	out := make([][]windowSnap, len(res.Coalitions))
	for i, cr := range res.Coalitions {
		out[i] = make([]windowSnap, len(cr.Results))
		for w, r := range cr.Results {
			out[i][w] = windowSnap{
				Window: r.Window, Kind: r.Kind, Price: r.Price, PHat: r.PHat,
				Trades: r.Trades, Degenerate: r.Degenerate,
				Sellers: r.SellerCount, Buyers: r.BuyerCount, BytesOnWire: r.BytesOnWire,
			}
		}
	}
	return out
}

// TestGridDeterministicAcrossConcurrency is the headline guarantee: a
// seeded grid produces bit-identical per-coalition outcomes whether the
// coalition-days run one at a time or all at once, partition held fixed.
func TestGridDeterministicAcrossConcurrency(t *testing.T) {
	tr := testFleet(t, 4, 3, 2)
	parts, err := Partition(StrategyBalanced, tr.Homes, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	var base [][]windowSnap
	var baseRes *Result
	for _, conc := range []int{1, 2, 4} {
		res, err := Run(ctx, Config{Engine: testEngineConfig(5), MaxConcurrent: conc}, tr, parts)
		if err != nil {
			t.Fatalf("concurrency %d: %v", conc, err)
		}
		if res.Windows != 4*2 {
			t.Fatalf("concurrency %d: %d windows completed", conc, res.Windows)
		}
		snap := snapshot(res)
		if base == nil {
			base, baseRes = snap, res
			continue
		}
		for i := range snap {
			for w := range snap[i] {
				a, b := base[i][w], snap[i][w]
				if a.Kind != b.Kind || a.Price != b.Price || a.PHat != b.PHat ||
					a.Degenerate != b.Degenerate || a.Sellers != b.Sellers ||
					a.Buyers != b.Buyers || a.BytesOnWire != b.BytesOnWire ||
					len(a.Trades) != len(b.Trades) {
					t.Fatalf("concurrency %d: coalition %d window %d diverged:\n%+v\nvs\n%+v", conc, i, w, a, b)
				}
				for k := range a.Trades {
					if a.Trades[k] != b.Trades[k] {
						t.Fatalf("concurrency %d: coalition %d window %d trade %d diverged", conc, i, w, k)
					}
				}
			}
		}
		if res.Settlement.Fleet != baseRes.Settlement.Fleet {
			t.Fatalf("concurrency %d: settlement diverged: %+v vs %+v", conc, res.Settlement.Fleet, baseRes.Settlement.Fleet)
		}
	}
}

// TestGridMatchesOracle checks every coalition's private outcome against
// the plaintext market.Clear under its mixed scenario, and the settlement
// against hand-computed residuals.
func TestGridMatchesOracle(t *testing.T) {
	tr := testFleet(t, 2, 3, 2)
	parts, err := Partition(StrategyRandom, tr.Homes, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{Engine: testEngineConfig(9)}, tr, parts)
	if err != nil {
		t.Fatal(err)
	}

	params := market.DefaultParams()
	var wantResiduals []market.CoalitionResidual
	for i, cr := range res.Coalitions {
		sub, err := tr.Select(parts[i])
		if err != nil {
			t.Fatal(err)
		}
		agents := sub.Agents()
		want := market.CoalitionResidual{Coalition: cr.Name}
		for w := 0; w < sub.Windows; w++ {
			inputs, err := sub.WindowInputs(w)
			if err != nil {
				t.Fatal(err)
			}
			clr, err := market.Clear(agents, inputs, params)
			if err != nil {
				t.Fatal(err)
			}
			got := cr.Results[w]
			if got.Kind != clr.Kind {
				t.Errorf("%s w%d: kind %v, oracle %v", cr.Name, w, got.Kind, clr.Kind)
			}
			if math.Abs(got.Price-clr.Price) > 1e-4 {
				t.Errorf("%s w%d: price %v, oracle %v", cr.Name, w, got.Price, clr.Price)
			}
			if len(got.Trades) != len(clr.Trades) {
				t.Errorf("%s w%d: %d trades, oracle %d", cr.Name, w, len(got.Trades), len(clr.Trades))
			}
			imp, exp := market.ResidualFromClearing(clr)
			want.ImportKWh += imp
			want.ExportKWh += exp
		}
		if math.Abs(cr.Residual.ImportKWh-want.ImportKWh) > 1e-9 ||
			math.Abs(cr.Residual.ExportKWh-want.ExportKWh) > 1e-9 {
			t.Errorf("%s residual %+v, want %+v", cr.Name, cr.Residual, want)
		}
		wantResiduals = append(wantResiduals, want)
	}
	wantSettle, err := market.SettleResiduals(wantResiduals, params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Settlement.Fleet.NetCost-wantSettle.Fleet.NetCost) > 1e-6 {
		t.Errorf("settlement net cost %v, want %v", res.Settlement.Fleet.NetCost, wantSettle.Fleet.NetCost)
	}
}

// TestGridFailFastIsolation: a poisoned coalition fails alone; coalitions
// already launched complete, unlaunched ones are skipped, and the result
// still carries the completed coalitions' outcomes.
func TestGridFailFastIsolation(t *testing.T) {
	tr := testFleet(t, 3, 2, 1)
	// Poison coalition 1's first home with a net energy the fixed-point
	// encoding must reject.
	tr.Gen[2][0] = math.Inf(1)
	parts, err := Partition(StrategyFixed, tr.Homes, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{Engine: testEngineConfig(3), MaxConcurrent: 1, MinCoalition: 2}, tr, parts)
	if err == nil {
		t.Fatal("poisoned grid returned nil error")
	}
	if res.Coalitions[0].Err != nil || len(res.Coalitions[0].Results) != 1 {
		t.Errorf("coalition 0 should have completed: %+v", res.Coalitions[0].Err)
	}
	if res.Coalitions[1].Err == nil {
		t.Error("poisoned coalition reported no error")
	}
	if !errors.Is(res.Coalitions[2].Err, ErrCoalitionSkipped) {
		t.Errorf("coalition 2 err = %v, want ErrCoalitionSkipped", res.Coalitions[2].Err)
	}
	if res.Settlement == nil || len(res.Settlement.PerCoalition) != 1 {
		t.Errorf("settlement should cover exactly the completed coalition: %+v", res.Settlement)
	}
}

// TestGridNoGoroutineLeak is the regression test for shared-pool ownership:
// after a grid run every engine has released its worker-pool reference and
// closed its nonce-pool goroutines, so repeated runs do not accumulate
// goroutines.
func TestGridNoGoroutineLeak(t *testing.T) {
	tr := testFleet(t, 2, 2, 1)
	parts, err := Partition(StrategyFixed, tr.Homes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	// Warm-up run so lazily-started runtime goroutines don't count.
	if _, err := Run(ctx, Config{Engine: testEngineConfig(7), MinCoalition: 2}, tr, parts); err != nil {
		t.Fatal(err)
	}
	settle := func() int {
		var n int
		for i := 0; i < 100; i++ {
			n = runtime.NumGoroutine()
			time.Sleep(10 * time.Millisecond)
			if runtime.NumGoroutine() == n {
				break
			}
		}
		return n
	}
	before := settle()
	for i := 0; i < 3; i++ {
		if _, err := Run(ctx, Config{Engine: testEngineConfig(7), MinCoalition: 2}, tr, parts); err != nil {
			t.Fatal(err)
		}
	}
	after := settle()
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d across grid runs", before, after)
	}
}

// TestGridMetricsSinkEndsEmpty: coalition engines fold each window's
// transport counters as it ends, so after a seeded grid day the shared
// bus's sink holds none, and the day's traffic — summed from the windows'
// results — is all the bus carried.
func TestGridMetricsSinkEndsEmpty(t *testing.T) {
	tr, err := dataset.GenerateFleet(dataset.FleetConfig{Coalitions: 2, HomesPerCoalition: 3, Windows: 2, Seed: 42, StartHour: 12})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Partition(StrategyBalanced, tr.Homes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engine: testEngineConfig(17)}
	cfg.Engine.Network = "wan"
	bus := transport.NewBus(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := runDay(ctx, cfg, core.Resources{Bus: bus}, tr, parts, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := bus.Metrics()
	if n := m.LiveWindows(); n != 0 {
		t.Errorf("%d window counters left in the shared sink after the day", n)
	}
	if res.TotalBytes == 0 || res.TotalBytes != m.TotalBytes() || res.TotalMessages != m.TotalMessages() {
		t.Errorf("day traffic %d B / %d msgs, bus carried %d B / %d msgs",
			res.TotalBytes, res.TotalMessages, m.TotalBytes(), m.TotalMessages())
	}
}

// TestGridCancelReportsContextError: a clean cancel must surface as the
// context's error, not as a coalition failure — skipped-on-cancel markers
// are bookkeeping, not failures.
func TestGridCancelReportsContextError(t *testing.T) {
	tr := testFleet(t, 2, 2, 1)
	parts, err := Partition(StrategyFixed, tr.Homes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Config{Engine: testEngineConfig(1), MaxConcurrent: 1}, tr, parts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, cr := range res.Coalitions {
		if cr.Err != nil && !errors.Is(cr.Err, ErrCoalitionSkipped) && !errors.Is(cr.Err, context.Canceled) {
			t.Errorf("%s err = %v", cr.Name, cr.Err)
		}
	}
}

// TestLaunchSkipNamesCause: coalitions the launcher never admits are marked
// ErrCoalitionSkipped with the reason the run was stopping — an earlier
// failure, a cancelled context (even though the cancel also fails the
// coalition it interrupts), or an aborted delivery — and are not delivered.
func TestLaunchSkipNamesCause(t *testing.T) {
	boom := errors.New("boom")
	cases := map[string]struct {
		second  func(ctx context.Context, cancel context.CancelFunc) error // coalition 1's day
		deliver error                                                      // coalition 0's delivery
		cause   string
	}{
		"failure": {
			second: func(context.Context, context.CancelFunc) error { return boom },
			cause:  "after earlier failure",
		},
		"cancellation": {
			second: func(ctx context.Context, cancel context.CancelFunc) error {
				cancel()
				<-ctx.Done()
				return ctx.Err()
			},
			cause: "on cancellation",
		},
		"delivery": {
			second: func(ctx context.Context, _ context.CancelFunc) error {
				<-ctx.Done()
				return ctx.Err()
			},
			deliver: boom,
			cause:   "after delivery aborted",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runs := []CoalitionRun{{Name: "c00"}, {Name: "c01"}, {Name: "c02"}}
			var delivered []string
			err := launchCoalitions(ctx, 1, runs,
				func(runCtx context.Context, cr *CoalitionRun) {
					if cr.Name == "c01" {
						cr.Err = tc.second(runCtx, cancel)
					}
				},
				func(cr *CoalitionRun) error {
					delivered = append(delivered, cr.Name)
					return tc.deliver
				})
			if err == nil {
				t.Fatal("stopped run returned nil error")
			}
			last := runs[2].Err
			if !errors.Is(last, ErrCoalitionSkipped) || !strings.HasSuffix(last.Error(), tc.cause) {
				t.Errorf("c02 err = %v, want ErrCoalitionSkipped %s", last, tc.cause)
			}
			if len(delivered) != 1 || delivered[0] != "c00" {
				t.Errorf("delivered %v, want only c00", delivered)
			}
		})
	}
}

func TestGridRejectsBadConfig(t *testing.T) {
	tr := testFleet(t, 2, 2, 1)
	parts, _ := Partition(StrategyFixed, tr.Homes, 2, 0)
	ctx := context.Background()
	if _, err := Run(ctx, Config{Engine: testEngineConfig(1), MaxConcurrent: -1}, tr, parts); err == nil {
		t.Error("accepted negative MaxConcurrent")
	}
	if _, err := Run(ctx, Config{Engine: testEngineConfig(1)}, tr, nil); err == nil {
		t.Error("accepted empty partition")
	}
	if _, err := Run(ctx, Config{Engine: testEngineConfig(1), MinCoalition: 1}, tr, parts); err == nil {
		t.Error("accepted MinCoalition below the engine's two-agent floor")
	}
	if _, err := Run(ctx, Config{Engine: testEngineConfig(1), MinCoalition: -3}, tr, parts); err == nil {
		t.Error("accepted negative MinCoalition")
	}
}

// TestGridFoldsSmallCoalition is the regression test for graceful
// degradation: a coalition below MinCoalition — routine once churn shrinks
// rosters — must not fail the grid. It is folded into grid settlement
// (members trade at the tariff), marked ErrCoalitionSkipped with Folded
// set, and the rest of the grid completes normally.
func TestGridFoldsSmallCoalition(t *testing.T) {
	tr := testFleet(t, 2, 4, 2) // 8 homes
	// Three coalitions of sizes 3, 3, 2: the last is below the default
	// MinCoalition of 3.
	parts, err := Partition(StrategyFixed, tr.Homes, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := Run(ctx, Config{Engine: testEngineConfig(21)}, tr, parts)
	if err != nil {
		t.Fatalf("grid with a small coalition failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		if cr := res.Coalitions[i]; cr.Err != nil || len(cr.Results) != 2 {
			t.Errorf("coalition %d should have completed: %+v", i, cr.Err)
		}
	}
	folded := res.Coalitions[2]
	if !folded.Folded {
		t.Fatalf("coalition 2 not folded: %+v", folded)
	}
	if !errors.Is(folded.Err, ErrCoalitionSkipped) {
		t.Errorf("folded coalition err = %v, want ErrCoalitionSkipped", folded.Err)
	}
	if folded.Results != nil {
		t.Error("folded coalition ran protocol windows")
	}

	// The stranded members' residuals are their grid-only baseline and are
	// part of the settlement.
	sub, err := tr.Select(parts[2])
	if err != nil {
		t.Fatal(err)
	}
	params := market.DefaultParams()
	var wantImp, wantExp float64
	for w := 0; w < sub.Windows; w++ {
		inputs, err := sub.WindowInputs(w)
		if err != nil {
			t.Fatal(err)
		}
		base, err := market.BaselineClear(sub.Agents(), inputs, params)
		if err != nil {
			t.Fatal(err)
		}
		imp, exp := market.ResidualFromClearing(base)
		wantImp += imp
		wantExp += exp
	}
	if math.Abs(folded.Residual.ImportKWh-wantImp) > 1e-9 || math.Abs(folded.Residual.ExportKWh-wantExp) > 1e-9 {
		t.Errorf("folded residual %+v, want import %v export %v", folded.Residual, wantImp, wantExp)
	}
	if res.Settlement == nil || len(res.Settlement.PerCoalition) != 3 {
		t.Fatalf("settlement must include the folded coalition: %+v", res.Settlement)
	}
	// MinCoalition 2 runs the same roster as a real market.
	res2, err := Run(ctx, Config{Engine: testEngineConfig(21), MinCoalition: 2}, tr, parts)
	if err != nil {
		t.Fatal(err)
	}
	if cr := res2.Coalitions[2]; cr.Folded || cr.Err != nil || len(cr.Results) != 2 {
		t.Errorf("MinCoalition 2 should run the two-agent coalition: %+v", cr.Err)
	}
}
